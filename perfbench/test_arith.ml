(* The benchmark's own arithmetic: span self time, the tail rule and
   error accounting. *)

let span ?(parent = -1) id start_ns end_ns =
  { Arith.id; parent; request = 1; name = "s"; start_ns; end_ns }

let self_of spans id =
  snd (List.find (fun ((s : Arith.span), _) -> s.id = id) (Arith.self_times spans))

let feq = Alcotest.float 1e-9

let self_time_no_children () =
  Alcotest.check feq "leaf self = duration" 7.0 (self_of [ span 0 3.0 10.0 ] 0)

let self_time_disjoint_children () =
  let spans = [ span 0 0.0 100.0; span ~parent:0 1 10.0 30.0; span ~parent:0 2 50.0 60.0 ] in
  Alcotest.check feq "parent self" 70.0 (self_of spans 0);
  Alcotest.check feq "child self" 20.0 (self_of spans 1)

(* Fanned-out children overlap: the covered part counts once. *)
let self_time_overlapping_children () =
  let spans =
    [ span 0 0.0 100.0; span ~parent:0 1 10.0 40.0; span ~parent:0 2 20.0 50.0; span ~parent:0 3 45.0 60.0 ]
  in
  Alcotest.check feq "union 10..60 covered" 50.0 (self_of spans 0)

(* A child running past its parent's end only covers the overlap. *)
let self_time_child_outside_parent () =
  let spans = [ span 0 0.0 100.0; span ~parent:0 1 90.0 130.0; span ~parent:0 2 (-20.0) 5.0 ] in
  Alcotest.check feq "clipped" 85.0 (self_of spans 0)

(* Grandchildren reduce their parent's self time, not the root's. *)
let self_time_nested () =
  let spans = [ span 0 0.0 100.0; span ~parent:0 1 0.0 50.0; span ~parent:1 2 10.0 30.0 ] in
  Alcotest.check feq "root" 50.0 (self_of spans 0);
  Alcotest.check feq "middle" 30.0 (self_of spans 1);
  Alcotest.check feq "leaf" 20.0 (self_of spans 2)

let tail_rule () =
  let check n want = Alcotest.check feq (Printf.sprintf "n=%d" n) want (Arith.tail_percentile n) in
  check 10_000 99.9;
  check 9_999 99.0;
  check 1_000 99.0;
  check 999 95.0;
  check 200 95.0;
  check 199 90.0;
  check 100 90.0;
  check 99 75.0;
  check 40 75.0;
  check 39 50.0;
  check 3 50.0;
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Arith.beyond 1000 99.0)

let percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Arith.percentile a 50.0);
  Alcotest.check feq "p99" 99.0 (Arith.percentile a 99.0);
  Alcotest.check feq "p100" 100.0 (Arith.percentile a 100.0);
  Alcotest.check feq "p0 clamps to the minimum" 1.0 (Arith.percentile a 0.0);
  Alcotest.check feq "median of unsorted" 3.0 (Arith.median [ 5.0; 1.0; 3.0; 4.0; 2.0 ])

let error_accounting () =
  let t = Arith.tally () in
  List.iter (Arith.record t) [ `Ok; `Ok; `Failed; `Wrong; `Ok ];
  Alcotest.(check int) "attempted" 5 t.attempted;
  Alcotest.(check int) "failed and wrong both count" 2 (Arith.bad t);
  Alcotest.check feq "rate" 0.4 (Arith.error_rate t);
  let u = Arith.tally () in
  Arith.record u `Failed;
  let m = Arith.merge [ t; u ] in
  Alcotest.(check int) "merged attempted" 6 m.attempted;
  Alcotest.check feq "merged rate" 0.5 (Arith.error_rate m);
  Alcotest.check feq "nothing attempted is rate 0, not NaN" 0.0 (Arith.error_rate (Arith.tally ()))

let () =
  Alcotest.run "perfbench_arith"
    [
      ( "self time",
        [
          Alcotest.test_case "no children" `Quick self_time_no_children;
          Alcotest.test_case "disjoint children" `Quick self_time_disjoint_children;
          Alcotest.test_case "overlapping children" `Quick self_time_overlapping_children;
          Alcotest.test_case "child outside parent" `Quick self_time_child_outside_parent;
          Alcotest.test_case "nested" `Quick self_time_nested;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "tail rule" `Quick tail_rule;
          Alcotest.test_case "nearest rank" `Quick percentiles;
        ] );
      ("errors", [ Alcotest.test_case "error_rate accounting" `Quick error_accounting ]);
    ]
