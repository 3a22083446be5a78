(* Storage-engine tests: schema enforcement, index correctness versus a
   naive scan, the buffer-pool cold/warm behaviour the latency
   experiments depend on, and the size accounting behind Table I. *)

open Sqldb

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "score"; ty = TReal; nullable = true };
    ]

let mk_row id name score =
  [| Value.Int (Int64.of_int id); Value.Text name; (match score with Some s -> Value.Real s | None -> Value.Null) |]

(* ---------------- Value ---------------- *)

let test_value_compare_order () =
  check_bool "null smallest" true (Value.compare Value.Null (Value.Int 0L) < 0);
  check_bool "int order" true (Value.compare (Value.Int 1L) (Value.Int 2L) < 0);
  check_bool "int64 negatives" true (Value.compare (Value.Int (-1L)) (Value.Int 1L) < 0);
  check_bool "text order" true (Value.compare (Value.Text "a") (Value.Text "b") < 0);
  check_bool "equal" true (Value.equal (Value.Blob "x") (Value.Blob "x"))

let test_value_heap_bytes () =
  check_int "int" 8 (Value.heap_bytes (Value.Int 5L));
  check_int "real" 8 (Value.heap_bytes (Value.Real 1.5));
  check_int "null" 0 (Value.heap_bytes Value.Null);
  check_int "short text varlena" 6 (Value.heap_bytes (Value.Text "hello"));
  check_int "long text varlena" 204 (Value.heap_bytes (Value.Text (String.make 200 'x')))

let test_value_hash_consistent () =
  check_int "hash equal values" (Value.hash (Value.Text "abc")) (Value.hash (Value.Text "abc"));
  check_bool "pp output" true (String.length (Value.to_string (Value.Blob "\x01")) > 0)

(* ---------------- Schema ---------------- *)

let test_schema_validation () =
  check_int "arity" 3 (Schema.arity small_schema);
  check_int "index" 1 (Schema.column_index small_schema "name");
  Alcotest.(check (option int)) "missing" None (Schema.column_index_opt small_schema "nope");
  check_bool "valid row" true (Schema.validate_row small_schema (mk_row 1 "a" None) = Ok ());
  check_bool "arity mismatch" true
    (Result.is_error (Schema.validate_row small_schema [| Value.Int 1L |]));
  check_bool "type mismatch" true
    (Result.is_error
       (Schema.validate_row small_schema [| Value.Text "x"; Value.Text "a"; Value.Null |]));
  check_bool "not-null violated" true
    (Result.is_error (Schema.validate_row small_schema [| Value.Null; Value.Text "a"; Value.Null |]))

let test_schema_rejects_duplicates () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.create: duplicate column \"a\"") (fun () ->
      ignore
        (Schema.create
           [ { name = "a"; ty = TInt; nullable = false }; { name = "a"; ty = TInt; nullable = false } ]))

(* ---------------- Table ---------------- *)

let test_table_insert_read () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let id0 = Table.insert t (mk_row 0 "alice" (Some 1.0)) in
  let id1 = Table.insert t (mk_row 1 "bob" None) in
  check_int "row ids sequential" 0 id0;
  check_int "row ids sequential 2" 1 id1;
  check_int "count" 2 (Table.row_count t);
  Alcotest.(check string) "read back" "bob" (match (Read_view.read_row (Table.freeze t) 1).(1) with Value.Text s -> s | _ -> "?");
  Alcotest.check_raises "schema enforced"
    (Invalid_argument "Table.insert(t): column \"name\" expects TEXT, got INT") (fun () ->
      ignore (Table.insert t [| Value.Int 2L; Value.Int 3L; Value.Null |]))

let test_table_pages_grow () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  (* Distinct ~104-byte names, stored inline: the heap must span many
     pages. *)
  for i = 0 to 999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "%04d%s" i (String.make 100 'x')) (Some 0.0)))
  done;
  check_bool "multiple pages" true (Table.heap_pages t > 5);
  check_bool "pages monotone with rows" true (Table.row_page t 999 >= Table.row_page t 0);
  check_bool "heap bytes = pages * size" true
    (Table.heap_bytes t = Table.heap_pages t * (Pager.config pager).page_size);
  check_bool "avg row bytes sane" true (Table.avg_row_bytes t > 0.0);
  (* Row-format shadow accounting sees the values inline: > 100 B/row. *)
  check_bool "row-model bytes sane" true
    (Table.row_model_bytes t > 100 * Table.live_count t);
  (* Same string every row, still stored once per tuple: the columnar
     tuple's 8-byte header (against the row format's 24 plus null
     bitmap) keeps the heap below the row-model shadow. *)
  let t2 = Table.create pager ~name:"t2" ~schema:small_schema in
  for i = 0 to 999 do
    ignore (Table.insert t2 (mk_row i (String.make 100 'x') (Some 0.0)))
  done;
  check_bool "repeated values compress" true (Table.heap_bytes t2 < Table.row_model_bytes t2)

let test_table_scan () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i "n" None))
  done;
  let seen = ref 0 in
  Read_view.scan (Table.freeze t) (fun _id _row -> incr seen);
  check_int "visits all" 100 !seen;
  let stats = Pager.stats pager in
  check_bool "charged rows" true (stats.rows_examined >= 100)

(* ---------------- Btree index ---------------- *)

let naive_lookup t col v =
  let acc = ref [] in
  for id = Table.row_count t - 1 downto 0 do
    if Value.equal (Table.peek_row t id).(col) v then acc := id :: !acc
  done;
  Array.of_list !acc

let test_index_matches_naive () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let g = Stdx.Prng.create 8L in
  for i = 0 to 499 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "name%d" (Stdx.Prng.int g 20)) None))
  done;
  let idx = Table.create_index t ~column:"name" in
  for k = 0 to 19 do
    let v = Value.Text (Printf.sprintf "name%d" k) in
    let from_index = Table_index.lookup idx v in
    Array.sort compare from_index;
    Alcotest.(check (array int)) (Printf.sprintf "key %d" k) (naive_lookup t 1 v) from_index
  done;
  Alcotest.(check (array int)) "missing key" [||] (Table_index.lookup idx (Value.Text "absent"))

let test_index_lookup_many_dedups () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 49 do
    ignore (Table.insert t (mk_row i (if i mod 2 = 0 then "even" else "odd") None))
  done;
  let idx = Table.create_index t ~column:"name" in
  let ids = Table_index.lookup_many idx [ Value.Text "even"; Value.Text "odd"; Value.Text "even" ] in
  check_int "all rows exactly once" 50 (Array.length ids)

let test_index_range () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i "x" None))
  done;
  let idx = Table.create_index t ~column:"id" in
  let ids = Option.get (Table_index.range idx ~lo:(Value.Int 10L) ~hi:(Value.Int 19L) ()) in
  check_int "inclusive range" 10 (Array.length ids);
  let all = Option.get (Table_index.range idx ()) in
  check_int "unbounded" 100 (Array.length all);
  let empty = Option.get (Table_index.range idx ~lo:(Value.Int 200L) ()) in
  check_int "empty range" 0 (Array.length empty)

let test_index_incremental_after_create () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let idx = Table.create_index t ~column:"name" in
  ignore (Table.insert t (mk_row 0 "late" None));
  check_int "sees post-create insert" 1 (Array.length (Table_index.lookup idx (Value.Text "late")))

let test_index_sizes () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 9999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "u%d" i) None))
  done;
  let idx = Table.create_index t ~column:"name" in
  check_bool "is btree" true (Table_index.kind idx = Table_index.Btree);
  let btree = Table_index.postings idx in
  check_int "entries" 10000 (Table_index.entry_count idx);
  check_int "distinct" 10000 (Table_index.distinct_keys idx);
  check_bool "has pages" true (Btree_index.leaf_pages pager btree > 10);
  check_bool "height >= 1" true (Btree_index.height pager btree >= 1);
  check_bool "size covers entries" true
    (Table_index.size_bytes idx > 10000 * 16);
  (* Duplicate-heavy index should pack denser than a unique one. *)
  let t2 = Table.create pager ~name:"t2" ~schema:small_schema in
  for i = 0 to 9999 do
    ignore (Table.insert t2 (mk_row i "same" None))
  done;
  let btree2 = Table_index.postings (Table.create_index t2 ~column:"name") in
  check_bool "duplicates pack denser" true
    (Btree_index.leaf_pages pager btree2 < Btree_index.leaf_pages pager btree)

(* ---------------- Hash index ---------------- *)

let test_hash_index_matches_naive () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let g = Stdx.Prng.create 12L in
  for i = 0 to 499 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "name%d" (Stdx.Prng.int g 20)) None))
  done;
  let idx = Table.create_index ~kind:Table_index.Hash t ~column:"name" in
  check_bool "is hash" true (Table_index.kind idx = Table_index.Hash);
  for k = 0 to 19 do
    let v = Value.Text (Printf.sprintf "name%d" k) in
    let from_index = Table_index.lookup idx v in
    Array.sort compare from_index;
    Alcotest.(check (array int)) (Printf.sprintf "key %d" k) (naive_lookup t 1 v) from_index
  done;
  Alcotest.(check (array int)) "missing key" [||] (Table_index.lookup idx (Value.Text "nope"))

let test_hash_index_no_range () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i "x" None))
  done;
  let idx = Table.create_index ~kind:Table_index.Hash t ~column:"id" in
  check_bool "range unsupported" true (Table_index.range idx ~lo:(Value.Int 1L) () = None);
  (* The executor must fall back to a seq scan, still correct. *)
  let r =
    Executor.run t ~projection:Executor.Row_ids
      (Predicate.Range ("id", Some (Value.Int 10L), Some (Value.Int 19L)))
  in
  check_bool "falls back to seq scan" true (r.plan = Seq_scan);
  check_int "correct result" 10 (Array.length r.row_ids)

let test_hash_index_probe_cost_flat () =
  (* Hash probes touch O(1) pages regardless of table size; a B-tree's
     descent grows with height. Compare misses for a singleton lookup
     on a large unique column. *)
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 49_999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "u%06d" i) None))
  done;
  let hash_idx = Table.create_index ~kind:Table_index.Hash t ~column:"name" in
  let btree_idx = Table.create_index ~kind:Table_index.Btree t ~column:"id" in
  Pager.drop_caches pager;
  Pager.reset_stats pager;
  ignore (Table_index.lookup hash_idx (Value.Text "u012345"));
  let hash_misses = (Pager.stats pager).misses in
  Pager.drop_caches pager;
  Pager.reset_stats pager;
  ignore (Table_index.lookup btree_idx (Value.Int 12345L));
  let btree_misses = (Pager.stats pager).misses in
  check_bool "hash touches one page" true (hash_misses = 1);
  check_bool "btree touches a root-to-leaf path" true (btree_misses > hash_misses)

let test_hash_index_sizes () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 9999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "u%d" i) None))
  done;
  let idx = Table.create_index ~kind:Table_index.Hash t ~column:"name" in
  check_int "entries" 10000 (Table_index.entry_count idx);
  check_bool "pages power of two" true
    (let p = Hash_index.bucket_pages pager (Table_index.postings idx) in
     p > 0 && p land (p - 1) = 0);
  check_bool "size positive" true (Table_index.size_bytes idx > 0)

(* ---------------- Pager cold/warm ---------------- *)

let test_pager_cold_warm () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 4999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 50)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let run () =
    Pager.reset_stats pager;
    let r = Executor.run t ~projection:Executor.All_columns (Predicate.Eq ("name", Value.Text "n7")) in
    (r, Pager.stats pager)
  in
  Pager.drop_caches pager;
  let r_cold, s_cold = run () in
  let r_warm, s_warm = run () in
  check_int "same results" (Array.length r_cold.row_ids) (Array.length r_warm.row_ids);
  check_bool "cold has misses" true (s_cold.misses > 0);
  check_int "warm has no misses" 0 s_warm.misses;
  check_bool "warm cheaper" true (s_warm.sim_ns < s_cold.sim_ns);
  Pager.drop_caches pager;
  let _, s_cold2 = run () in
  check_bool "drop_caches restores cold cost" true (s_cold2.misses = s_cold.misses)

let test_pager_stats_accumulate () =
  let pager = Pager.create () in
  let rel = Pager.make_rel pager ~name:"r" in
  Pager.touch pager rel 0;
  Pager.touch pager rel 0;
  Pager.touch pager rel 1;
  let s = Pager.stats pager in
  check_int "misses" 2 s.misses;
  check_int "hits" 1 s.hits;
  check_bool "sim time from misses" true (s.sim_ns >= 2.0 *. (Pager.config pager).io_miss_ns);
  Pager.reset_stats pager;
  check_int "reset" 0 (Pager.stats pager).misses

(* ---------------- Snapshot views & parallel pager accounting ---------------- *)

let test_pager_counters_exact_multi_domain () =
  (* Four domains query disjoint slices concurrently — of a frozen view,
     of the unmutated live table, and of the live table just after
     inserts no query matches (so the readers are the first to look at
     the changed index). Each query's [stats] is a domain-local delta;
     the pager's atomic whole-instance totals must equal the sum of
     those deltas exactly — a lost-update race in the counters, or a
     per-query window that counts other domains' work, would break the
     equality — and the rows must equal the sequential run's. *)
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 4999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 64)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let view = Table.freeze t in
  let pred k = Predicate.Eq ("name", Value.Text (Printf.sprintf "n%d" k)) in
  let seq = Array.init 64 (fun k -> Executor.run t ~projection:Executor.All_columns (pred k)) in
  List.iter
    (fun (label, prepare, query) ->
      prepare ();
      Pager.drop_caches pager;
      Pager.reset_stats pager;
      let n_dom = 4 in
      let worker d () =
        let acc = ref [] in
        let k = ref d in
        while !k < 64 do
          acc := (!k, query (pred !k)) :: !acc;
          k := !k + n_dom
        done;
        !acc
      in
      let doms = Array.init (n_dom - 1) (fun i -> Domain.spawn (worker (i + 1))) in
      let own = worker 0 () in
      let all = own @ List.concat_map Domain.join (Array.to_list doms) in
      let results = Array.make 64 None in
      List.iter (fun (k, r) -> results.(k) <- Some r) all;
      let per_query = Array.map Option.get results in
      let total =
        Array.fold_left
          (fun acc (r : Executor.result) -> Pager.sum_stats acc r.stats)
          Pager.zero_stats per_query
      in
      let global = Pager.stats pager in
      let name s = label ^ ": " ^ s in
      check_int (name "hits exact") global.hits total.hits;
      check_int (name "misses exact") global.misses total.misses;
      check_int (name "rows examined exact") global.rows_examined total.rows_examined;
      check_bool (name "sim time sums") true
        (Float.abs (global.sim_ns -. total.sim_ns) <= 1e-6 *. Float.max 1.0 global.sim_ns);
      check_bool (name "work actually happened") true
        (global.misses > 0 && global.rows_examined > 0);
      Array.iteri
        (fun k (r : Executor.result) ->
          Alcotest.(check (array int)) (Printf.sprintf "%s ids %d" label k) seq.(k).row_ids r.row_ids;
          check_bool (Printf.sprintf "%s rows %d" label k) true (r.rows = seq.(k).rows))
        per_query)
    [
      ("view", ignore, Executor.run_view view ~projection:Executor.All_columns);
      ("live", ignore, Executor.run t ~projection:Executor.All_columns);
      ( "live after insert",
        (fun () ->
          for i = 5000 to 5199 do
            ignore (Table.insert t (mk_row i (Printf.sprintf "m%d" i) None))
          done),
        Executor.run t ~projection:Executor.All_columns );
    ]

let test_run_view_matches_run () =
  (* Same epoch, warm cache: [run_view] with no pool is byte-identical
     to [run] (ids, rows, plan, pager delta), and a 4-domain pool fans
     out the OR probes yet returns identical ids/rows/plan. *)
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 1999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 40)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  ignore (Table.create_index t ~column:"id");
  let view = Table.freeze t in
  check_int "epoch unchanged by freeze" (Table.epoch t) (Read_view.epoch view);
  let pred =
    Predicate.Or
      [
        Predicate.In ("name", [ Value.Text "n3"; Value.Text "n17"; Value.Text "n39" ]);
        Predicate.Eq ("id", Value.Int 7L);
      ]
  in
  let warm projection p =
    ignore (Executor.run t ~projection p);
    ignore (Executor.run_view view ~projection p)
  in
  List.iter
    (fun projection ->
      warm projection pred;
      let r_seq = Executor.run t ~projection pred in
      let r_view = Executor.run_view view ~projection pred in
      Alcotest.(check (array int)) "ids equal" r_seq.row_ids r_view.row_ids;
      check_bool "rows equal" true (r_view.rows = r_seq.rows);
      check_bool "plan equal" true (r_view.plan = r_seq.plan);
      check_int "hits equal" r_seq.stats.hits r_view.stats.hits;
      check_int "misses equal" r_seq.stats.misses r_view.stats.misses;
      check_int "rows examined equal" r_seq.stats.rows_examined r_view.stats.rows_examined;
      Stdx.Task_pool.with_pool ~domains:4 (fun pool ->
          let r_par = Executor.run_view ~pool view ~projection pred in
          Alcotest.(check (array int)) "parallel ids equal" r_seq.row_ids r_par.row_ids;
          check_bool "parallel rows equal" true (r_par.rows = r_seq.rows);
          check_bool "parallel plan equal" true (r_par.plan = r_seq.plan);
          check_int "parallel rows examined equal" r_seq.stats.rows_examined
            r_par.stats.rows_examined))
    [ Executor.Row_ids; Executor.All_columns ]

let test_view_isolated_from_mutations () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%d" (i mod 10)) None))
  done;
  ignore (Table.create_index t ~column:"name");
  let view = Table.freeze t in
  let pred = Predicate.Eq ("name", Value.Text "n4") in
  let before = (Executor.run_view view ~projection:Executor.All_columns pred).rows in
  for i = 0 to 99 do
    check_bool "deleted" true (Table.delete t i)
  done;
  Table.vacuum t;
  ignore (Table.insert t (mk_row 1000 "n4" (Some 1.0)));
  let after = (Executor.run_view view ~projection:Executor.All_columns pred).rows in
  check_bool "view unchanged by delete/vacuum/insert" true (before = after);
  check_int "view still sees 10 rows" 10 (Array.length after);
  let fresh = Table.freeze t in
  check_bool "fresh view at later epoch" true (Read_view.epoch fresh > Read_view.epoch view);
  check_int "fresh view sees new state" 1
    (Array.length (Executor.run_view fresh ~projection:Executor.Row_ids pred).row_ids)

(* A freeze costs the same at any table size: it takes the table's
   backings, counters and index versions, and copies nothing. *)
let test_freeze_allocation_constant () =
  let freeze_bytes rows =
    let pager = Pager.create () in
    let t = Table.create pager ~name:"t" ~schema:small_schema in
    ignore (Table.create_index t ~column:"name");
    ignore (Table.create_index ~kind:Table_index.Hash t ~column:"id");
    ignore
      (Table.insert_batch t
         (Array.init rows (fun i -> mk_row i (Printf.sprintf "n%d" (i mod 97)) None)));
    ignore (Table.delete t (rows / 2) : bool);
    let before = Gc.allocated_bytes () in
    let view = Table.freeze t in
    let after = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity view);
    int_of_float (after -. before)
  in
  let small = freeze_bytes 2_000 in
  let large = freeze_bytes 20_000 in
  check_int "same bytes at 2,000 and 20,000 rows" small large;
  check_bool (Printf.sprintf "at most 4 KiB (%d B)" small) true (small <= 4096)

(* A frozen index shares id arrays with the live one, so it must refuse
   writes. *)
let test_frozen_index_rejects_writes () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  ignore (Table.create_index t ~column:"name");
  ignore (Table.insert t (mk_row 0 "a" None));
  let idx = Option.get (Read_view.index_on (Table.freeze t) ~column:"name") in
  Alcotest.check_raises "insert" (Invalid_argument "Table_index: t.name.idx is frozen") (fun () ->
      Table_index.insert idx (Value.Text "a") 1);
  Alcotest.check_raises "clear" (Invalid_argument "Table_index: t.name.idx is frozen") (fun () ->
      Table_index.clear idx);
  ignore (Table.insert t (mk_row 1 "a" None));
  Alcotest.(check (array int)) "frozen answer unchanged" [| 0 |] (Table_index.lookup idx (Value.Text "a"))

(* corpus/index-probes.txt pins every answer, page touch and size of
   the scripted index workload (see index_script.ml). *)
let test_index_probes_match_fixture () =
  let expected = In_channel.with_open_bin "corpus/index-probes.txt" In_channel.input_all in
  Alcotest.(check string) "transcript" expected (Index_script.transcript ())

(* ---------------- Executor ---------------- *)

let build_db () =
  let db = Database.create () in
  let t = Database.create_table db ~name:"people" ~schema:small_schema in
  ignore (Table.create_index t ~column:"name");
  ignore (Table.create_index t ~column:"id");
  for i = 0 to 999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "p%d" (i mod 10)) (Some (float_of_int i))))
  done;
  (db, t)

let test_executor_plans () =
  let _db, t = build_db () in
  check_bool "eq on indexed -> index scan" true
    (Executor.explain t (Predicate.Eq ("name", Value.Text "p1")) = Executor.Index_scan "name");
  check_bool "in on indexed -> index scan" true
    (Executor.explain t (Predicate.In ("name", [ Value.Text "p1" ])) = Executor.Index_scan "name");
  check_bool "non-indexed -> seq scan" true
    (Executor.explain t (Predicate.Eq ("score", Value.Real 3.0)) = Executor.Seq_scan);
  check_bool "and picks indexable leg" true
    (Executor.explain t
       (Predicate.And [ Predicate.Eq ("score", Value.Real 3.0); Predicate.Eq ("name", Value.Text "p1") ])
    = Executor.Index_scan "name")

let test_executor_correctness () =
  let _db, t = build_db () in
  let r = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "p3")) in
  check_int "100 matches" 100 (Array.length r.row_ids);
  check_int "row_ids only" 0 (Array.length r.rows);
  let r2 = Executor.run t ~projection:Executor.All_columns (Predicate.Eq ("name", Value.Text "p3")) in
  check_int "rows fetched" 100 (Array.length r2.rows);
  Array.iter
    (fun row -> check_bool "right rows" true (row.(1) = Value.Text "p3"))
    r2.rows;
  (* Seq scan agrees with index scan. *)
  let seq =
    Executor.run t ~projection:Executor.Row_ids
      (Predicate.And [ Predicate.Eq ("name", Value.Text "p3"); Predicate.True ])
  in
  check_int "seq/index agree" (Array.length r.row_ids) (Array.length seq.row_ids)

let test_executor_residual_filter () =
  let _db, t = build_db () in
  let r =
    Executor.run t ~projection:Executor.Row_ids
      (Predicate.And
         [ Predicate.Eq ("name", Value.Text "p3"); Predicate.Range ("id", Some (Value.Int 0L), Some (Value.Int 99L)) ])
  in
  check_int "filtered to first hundred ids" 10 (Array.length r.row_ids)

let test_executor_select_star_touches_heap () =
  let db, t = build_db () in
  Database.drop_caches db;
  Pager.reset_stats (Table.pager t);
  let _ = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "p4")) in
  let ids_stats = Pager.stats (Table.pager t) in
  Database.drop_caches db;
  Pager.reset_stats (Table.pager t);
  let _ = Executor.run t ~projection:Executor.All_columns (Predicate.Eq ("name", Value.Text "p4")) in
  let star_stats = Pager.stats (Table.pager t) in
  check_bool "SELECT * touches more pages than SELECT ID" true
    (star_stats.misses > ids_stats.misses)

let test_executor_or_union () =
  let _db, t = build_db () in
  (* All legs indexable -> a deduplicated union of index lookups. *)
  let p =
    Predicate.Or
      [
        Predicate.Eq ("name", Value.Text "p1");
        Predicate.Range ("id", Some (Value.Int 0L), Some (Value.Int 99L));
      ]
  in
  check_bool "all-indexable OR -> index union" true
    (Executor.explain t p = Executor.Or_index_scan [ "name"; "id" ]);
  let r = Executor.run t ~projection:Executor.Row_ids p in
  (* 100 p1-rows + 100 low ids, overlapping on the 10 low p1-rows. *)
  check_int "union deduplicated" 190 (Array.length r.row_ids);
  let sorted = Array.to_list r.row_ids in
  check_bool "ids sorted and unique" true
    (List.sort_uniq compare sorted = sorted);
  let seq =
    Executor.run t ~projection:Executor.Row_ids (Predicate.And [ p; Predicate.True ])
  in
  check_bool "seq scan fell back" true (seq.plan = Executor.Seq_scan);
  check_bool "union agrees with seq scan" true (sorted = Array.to_list seq.row_ids);
  (* Nested ORs flatten into one union. *)
  let nested =
    Predicate.Or
      [
        Predicate.Eq ("name", Value.Text "p1");
        Predicate.Or
          [ Predicate.Eq ("name", Value.Text "p2"); Predicate.Eq ("name", Value.Text "p3") ];
      ]
  in
  check_bool "nested OR flattens" true
    (Executor.explain t nested = Executor.Or_index_scan [ "name"; "name"; "name" ]);
  check_int "nested union" 300
    (Array.length (Executor.run t ~projection:Executor.Row_ids nested).row_ids);
  (* One unservable leg poisons the whole disjunction. *)
  check_bool "non-indexable leg -> seq scan" true
    (Executor.explain t
       (Predicate.Or [ Predicate.Eq ("name", Value.Text "p1"); Predicate.Eq ("score", Value.Real 3.0) ])
    = Executor.Seq_scan)

let test_executor_or_and_not () =
  let _db, t = build_db () in
  let r =
    Executor.run t ~projection:Executor.Row_ids
      (Predicate.Or [ Predicate.Eq ("name", Value.Text "p1"); Predicate.Eq ("name", Value.Text "p2") ])
  in
  check_int "or" 200 (Array.length r.row_ids);
  let r2 = Executor.run t ~projection:Executor.Row_ids (Predicate.Not (Predicate.Eq ("name", Value.Text "p1"))) in
  check_int "not" 900 (Array.length r2.row_ids)

(* ---------------- Database ---------------- *)

let test_database_catalog () =
  let db = Database.create () in
  let _t = Database.create_table db ~name:"a" ~schema:small_schema in
  check_bool "lookup" true (Database.table_opt db "a" <> None);
  check_bool "missing" true (Database.table_opt db "b" = None);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Database.create_table: table \"a\" already exists") (fun () ->
      ignore (Database.create_table db ~name:"a" ~schema:small_schema));
  ignore (Database.insert db ~table:"a" (mk_row 0 "x" None));
  check_int "insert through catalog" 1 (Table.row_count (Database.table db "a"));
  check_bool "sizes positive" true (Database.total_bytes db >= Database.heap_bytes db)

(* ---------------- Predicate ---------------- *)

let test_predicate_compile_columns () =
  let p =
    Predicate.And
      [ Predicate.Eq ("name", Value.Text "a"); Predicate.Or [ Predicate.Eq ("id", Value.Int 1L); Predicate.Eq ("name", Value.Text "b") ] ]
  in
  Alcotest.(check (list string)) "columns deduped" [ "name"; "id" ] (Predicate.columns p);
  let f = Predicate.compile small_schema p in
  check_bool "matching row" true (f (mk_row 1 "a" None));
  check_bool "or branch fails" false (f (mk_row 2 "a" None));
  check_bool "and leg fails" false (f (mk_row 1 "c" None));
  let q = Predicate.compile small_schema (Predicate.In ("name", [ Value.Text "a"; Value.Text "b" ])) in
  check_bool "in" true (q (mk_row 5 "b" None));
  check_bool "pp non-empty" true (String.length (Format.asprintf "%a" Predicate.pp p) > 10)

(* ---------------- CSV ---------------- *)

let test_csv_parse_basic () =
  check_bool "simple" true
    (Csv.parse "a,b,c\n1,2,3\n" = Ok [ [ "a"; "b"; "c" ]; [ "1"; "2"; "3" ] ]);
  check_bool "no trailing newline" true (Csv.parse "a,b" = Ok [ [ "a"; "b" ] ]);
  check_bool "empty cells" true (Csv.parse ",\n" = Ok [ [ ""; "" ] ]);
  check_bool "crlf" true (Csv.parse "a,b\r\nc,d\r\n" = Ok [ [ "a"; "b" ]; [ "c"; "d" ] ])

let test_csv_parse_quoting () =
  check_bool "embedded comma" true (Csv.parse "\"a,b\",c\n" = Ok [ [ "a,b"; "c" ] ]);
  check_bool "escaped quote" true (Csv.parse "\"say \"\"hi\"\"\"\n" = Ok [ [ "say \"hi\"" ] ]);
  check_bool "embedded newline" true (Csv.parse "\"a\nb\",c\n" = Ok [ [ "a\nb"; "c" ] ]);
  check_bool "unterminated rejected" true (Result.is_error (Csv.parse "\"abc\n"));
  check_bool "garbage after quote rejected" true (Result.is_error (Csv.parse "\"a\"b,c\n"))

let test_csv_render_roundtrip () =
  let rows = [ [ "plain"; "with,comma"; "with\"quote" ]; [ "line\nbreak"; ""; "x" ] ] in
  check_bool "roundtrip" true (Csv.parse (Csv.render rows) = Ok rows)

let test_csv_typed_rows () =
  let rows =
    Csv.typed_rows ~schema:small_schema ~header:true
      [ [ "id"; "name"; "score" ]; [ "1"; "alice"; "2.5" ]; [ "2"; "bob"; "" ] ]
  in
  (match rows with
  | Ok [ r0; r1 ] ->
      check_bool "int" true (r0.(0) = Value.Int 1L);
      check_bool "real" true (r0.(2) = Value.Real 2.5);
      check_bool "empty nullable is NULL" true (r1.(2) = Value.Null)
  | _ -> Alcotest.fail "typed_rows failed");
  check_bool "bad int rejected" true
    (Result.is_error
       (Csv.typed_rows ~schema:small_schema ~header:false [ [ "xx"; "a"; "" ] ]));
  check_bool "wrong header rejected" true
    (Result.is_error
       (Csv.typed_rows ~schema:small_schema ~header:true [ [ "wrong"; "names"; "here" ] ]));
  check_bool "arity mismatch rejected" true
    (Result.is_error (Csv.typed_rows ~schema:small_schema ~header:false [ [ "1" ] ]))

let test_csv_untyped_roundtrip () =
  let typed = [ [| Value.Int 42L; Value.Text "x,y"; Value.Real 1.5 |] ] in
  let cells = Csv.untyped_rows typed in
  match Csv.typed_rows ~schema:small_schema ~header:false cells with
  | Ok [ row ] -> check_bool "roundtrip through cells" true (row = List.hd typed)
  | _ -> Alcotest.fail "roundtrip failed"

(* ---------------- DML: delete / update ---------------- *)

let test_table_delete () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 9 do
    ignore (Table.insert t (mk_row i "x" None))
  done;
  ignore (Table.create_index t ~column:"name");
  check_bool "delete succeeds" true (Table.delete t 3);
  check_bool "second delete is a no-op" false (Table.delete t 3);
  check_int "live count" 9 (Table.live_count t);
  check_int "row count unchanged (tombstone)" 10 (Table.row_count t);
  check_bool "is_live" false (Table.is_live t 3);
  (* Both access paths skip the dead row. *)
  let via_index = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "x")) in
  check_int "index scan skips dead" 9 (Array.length via_index.row_ids);
  let seen = ref 0 in
  Read_view.scan (Table.freeze t) (fun _ _ -> incr seen);
  check_int "seq scan skips dead" 9 !seen

let test_table_update () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let id = Table.insert t (mk_row 0 "before" None) in
  ignore (Table.create_index t ~column:"name");
  let new_id = Table.update t id (mk_row 0 "after" None) in
  check_bool "new version gets a fresh id" true (new_id <> id);
  check_bool "old version dead" false (Table.is_live t id);
  let r = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "after")) in
  check_int "new value findable" 1 (Array.length r.row_ids);
  let r2 = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text "before")) in
  check_int "old value gone" 0 (Array.length r2.row_ids);
  let raised = try ignore (Table.update t id (mk_row 0 "again" None)); false with Invalid_argument _ -> true in
  check_bool "updating a dead row rejected" true raised

let test_sql_delete_update () =
  let db = Database.create () in
  let t = Database.create_table db ~name:"t" ~schema:small_schema in
  for i = 0 to 19 do
    ignore (Table.insert t (mk_row i (if i mod 2 = 0 then "even" else "odd") None))
  done;
  ignore (Table.create_index t ~column:"name");
  (match Sql.execute db "DELETE FROM t WHERE name = 'odd'" with
  | Ok r -> check_int "deleted" 10 r.affected
  | Error e -> Alcotest.fail e);
  (match Sql.execute db "SELECT * FROM t" with
  | Ok r -> check_int "ten left" 10 (List.length r.rows)
  | Error e -> Alcotest.fail e);
  (match Sql.execute db "UPDATE t SET name = 'renamed' WHERE id BETWEEN 0 AND 5" with
  | Ok r -> check_int "updated" 3 r.affected (* ids 0,2,4 are the even survivors *)
  | Error e -> Alcotest.fail e);
  (match Sql.execute db "SELECT * FROM t WHERE name = 'renamed'" with
  | Ok r -> check_int "renamed rows" 3 (List.length r.rows)
  | Error e -> Alcotest.fail e);
  check_bool "unknown set column" true
    (Result.is_error (Sql.execute db "UPDATE t SET nope = 1"));
  check_bool "type-checked update" true
    (Result.is_error (Sql.execute db "UPDATE t SET name = 5"))

let test_table_insert_batch_equivalent () =
  let build insert_all =
    let pager = Pager.create () in
    let t = Table.create pager ~name:"t" ~schema:small_schema in
    ignore (Table.create_index t ~column:"name");
    insert_all t;
    t
  in
  let rows = Array.init 300 (fun i -> mk_row i (Printf.sprintf "p%d" (i mod 7)) None) in
  let seq = build (fun t -> Array.iter (fun r -> ignore (Table.insert t r)) rows) in
  let batch = build (fun t -> check_int "first id" 0 (Table.insert_batch t rows)) in
  check_int "row_count" (Table.row_count seq) (Table.row_count batch);
  check_int "heap_pages" (Table.heap_pages seq) (Table.heap_pages batch);
  check_int "heap_bytes" (Table.heap_bytes seq) (Table.heap_bytes batch);
  check_int "index_bytes" (Table.index_bytes seq) (Table.index_bytes batch);
  for id = 0 to Table.row_count seq - 1 do
    check_bool (Printf.sprintf "row %d" id) true (Table.peek_row seq id = Table.peek_row batch id);
    check_int (Printf.sprintf "page of %d" id) (Table.row_page seq id) (Table.row_page batch id)
  done;
  (* Indexes were maintained: lookups agree with the sequential build. *)
  for k = 0 to 6 do
    let v = Value.Text (Printf.sprintf "p%d" k) in
    let ids t = Array.to_list (Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", v))).row_ids in
    check_bool (Printf.sprintf "lookup p%d" k) true (List.sort compare (ids seq) = List.sort compare (ids batch))
  done

let test_table_insert_batch_all_or_nothing () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let rows = [| mk_row 0 "ok" None; [| Value.Null; Value.Text "bad"; Value.Null |] |] in
  let raised = try ignore (Table.insert_batch t rows); false with Invalid_argument _ -> true in
  check_bool "invalid row rejected" true raised;
  check_int "nothing applied" 0 (Table.row_count t);
  check_int "empty batch returns next id" 0 (Table.insert_batch t [||]);
  check_int "still empty" 0 (Table.row_count t)

let test_table_vacuum_reclaims () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let idx = Table.create_index t ~column:"name" in
  (* 1000 rows so the churn spans several heap pages even at columnar
     tuple widths — the page-count shrink below needs real volume. *)
  for i = 0 to 999 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "p%d" (i mod 5)) None))
  done;
  let bytes_before = Table.index_bytes t and entries_before = Table_index.entry_count idx in
  (* Churn: update every row once, then delete half the survivors —
     MVCC leaves every old version tombstoned with stale index entries. *)
  for i = 0 to 999 do
    ignore (Table.update t i (mk_row i (Printf.sprintf "q%d" (i mod 5)) None))
  done;
  for i = 1000 to 1499 do
    ignore (Table.delete t i)
  done;
  check_int "live rows" 500 (Table.live_count t);
  check_bool "stale entries bloat the index" true (Table_index.entry_count idx > 1000);
  let heap_bloated = Table.heap_bytes t in
  Table.vacuum t;
  (* Index accounting shrinks back to the live rows. *)
  check_int "entry_count = live rows" 500 (Table_index.entry_count idx);
  check_bool "index size shrinks" true (Table.index_bytes t <= bytes_before);
  check_bool "heap shrinks" true (Table.heap_bytes t < heap_bloated);
  check_int "row ids stable" 2000 (Table.row_count t);
  check_int "live rows unchanged" 500 (Table.live_count t);
  ignore (entries_before : int);
  (* No resurrection: scans and index lookups see only live versions. *)
  let seen = ref 0 in
  Read_view.scan (Table.freeze t) (fun _ _ -> incr seen);
  check_int "seq scan" 500 !seen;
  for k = 0 to 4 do
    let gone = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text (Printf.sprintf "p%d" k))) in
    check_int (Printf.sprintf "old version p%d gone" k) 0 (Array.length gone.row_ids);
    let live = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", Value.Text (Printf.sprintf "q%d" k))) in
    check_int (Printf.sprintf "live version q%d" k) 100 (Array.length live.row_ids)
  done;
  (* Idempotent, and dead ids stay dead. *)
  Table.vacuum t;
  check_int "second vacuum no-op" 500 (Table_index.entry_count idx);
  check_bool "dead id stays dead" false (Table.is_live t 0)

(* ---------------- Columnar storage ---------------- *)

(* Regression: the pre-columnar engine never decremented its byte total
   on delete, so [avg_row_bytes] overreported (total unchanged, live
   count shrinking) until a vacuum. Deleting half of a uniform table
   must leave the average unchanged, and deleting everything must
   report 0, not a division blow-up. *)
let test_avg_row_bytes_tracks_deletes () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  for i = 0 to 99 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "n%02d%s" i (String.make 60 'x')) None))
  done;
  let before = Table.avg_row_bytes t in
  check_bool "positive" true (before > 0.0);
  for i = 0 to 49 do
    ignore (Table.delete t i)
  done;
  check_bool "uniform rows: average unchanged by deletes" true
    (Float.abs (Table.avg_row_bytes t -. before) < 0.001);
  for i = 50 to 99 do
    ignore (Table.delete t i)
  done;
  check_bool "empty table reports 0" true (Table.avg_row_bytes t = 0.0);
  (* Still 0 after vacuum, and consistent once rows come back. *)
  Table.vacuum t;
  check_bool "still 0 after vacuum" true (Table.avg_row_bytes t = 0.0);
  ignore (Table.insert t (mk_row 0 "fresh" None));
  check_bool "recovers" true (Table.avg_row_bytes t > 0.0)

let test_columnar_vacuum_roundtrip () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let idx = Table.create_index t ~column:"name" in
  (* 7 distinct names over 300 rows. *)
  for i = 0 to 299 do
    ignore (Table.insert t (mk_row i (Printf.sprintf "v%d" (i mod 7)) None))
  done;
  (* Exact physical round-trip of a clean table. *)
  let s1 = Table.snapshot t in
  let r1 = Table.of_snapshot pager s1 in
  check_bool "clean roundtrip" true (Table.snapshot r1 = s1);
  check_int "restored heap pages" (Table.heap_pages t) (Table.heap_pages r1);
  check_bool "restored avg" true (Table.avg_row_bytes r1 = Table.avg_row_bytes t);
  (* Drop every "v0" row; vacuum must reclaim exactly those slots and
     leave every other row untouched. *)
  for i = 0 to 299 do
    if i mod 7 = 0 then ignore (Table.delete t i)
  done;
  let before = Array.init 300 (Table.peek_row t) in
  (* Restored-from-snapshot table must behave identically through the
     same churn. *)
  let r2 = Table.of_snapshot pager (Table.snapshot t) in
  Table.vacuum t;
  Table.vacuum r2;
  check_bool "restored table vacuums identically" true (Table.snapshot r2 = Table.snapshot t);
  for i = 0 to 299 do
    if i mod 7 = 0 then
      check_bool (Printf.sprintf "reclaimed slot %d reads empty" i) true (Table.peek_row t i = [||])
    else check_bool (Printf.sprintf "surviving row %d unchanged" i) true (Table.peek_row t i = before.(i))
  done;
  check_bool "v0 unfindable" true
    (Array.length (Table_index.lookup idx (Value.Text "v0")) = 0);
  check_bool "v1 intact" true (Array.length (Table_index.lookup idx (Value.Text "v1")) > 0);
  (* All-dead edge: a fully deleted and vacuumed table accounts to
     zero pages, with row ids intact. *)
  for i = 0 to Table.row_count t - 1 do
    ignore (Table.delete t i)
  done;
  Table.vacuum t;
  check_int "all-dead: no heap pages" 0 (Table.heap_pages t);
  check_int "all-dead: no heap bytes" 0 (Table.heap_bytes t);
  check_int "all-dead: row ids stable" 300 (Table.row_count t);
  check_bool "all-dead: reclaimed rows empty" true (Table.peek_row t 0 = [||]);
  (* Reclaimed-slot edge: new rows append past the holes; the physical
     state — holes included — still round-trips exactly. *)
  let id = Table.insert t (mk_row 1000 "v1" None) in
  check_int "appends past holes" 300 id;
  let s3 = Table.snapshot t in
  let r3 = Table.of_snapshot pager s3 in
  check_bool "holey roundtrip" true (Table.snapshot r3 = s3);
  check_bool "restored index finds new row" true
    (match Table.index_on r3 ~column:"name" with
    | Some i -> Array.length (Table_index.lookup i (Value.Text "v1")) = 1
    | None -> false)

(* A restored table grows exactly like the original: push both
   through the same appends and compare the physical state. *)
let test_restore_then_grow_deterministic () =
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let row i = mk_row i (Printf.sprintf "unique-%08d" i) None in
  ignore (Table.insert_batch t (Array.init 3000 row));
  let r = Table.of_snapshot pager (Table.snapshot t) in
  ignore (Table.insert_batch t (Array.init 3000 (fun i -> row (3000 + i))));
  ignore (Table.insert_batch r (Array.init 3000 (fun i -> row (3000 + i))));
  check_bool "identical physical state" true (Table.snapshot t = Table.snapshot r);
  check_int "identical heap bytes" (Table.heap_bytes t) (Table.heap_bytes r)

(* Resource bound on resident column storage: beyond the values
   themselves, a table with no indexes keeps at most 3 words per cell
   (one vector slot, two with doubling slack) and 8 words per row (the
   visibility, page and size vectors, with their slack). A per-cell
   entry record, option box or id indirection would break it. *)
let test_column_storage_words_bound () =
  let n = 5000 in
  let pager = Pager.create () in
  let t = Table.create pager ~name:"t" ~schema:small_schema in
  let rows = Array.init n (fun i -> mk_row i (Printf.sprintf "unique-%08d" i) (Some (float_of_int i))) in
  ignore (Table.insert_batch t rows);
  let values = Array.concat (Array.to_list rows) in
  let cells = Array.length values in
  let extra = Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr values) in
  check_bool
    (Printf.sprintf "%d extra words <= 3/cell + 8/row (%d cells, %d rows)" extra cells n)
    true
    (extra <= (3 * cells) + (8 * n))

(* ---------------- QCheck ---------------- *)

(* Random predicates executed through the planner must agree with naive
   row-by-row evaluation — the strongest correctness net for the
   planner/index/filter pipeline. *)
let qcheck_executor_vs_naive =
  let pred_gen =
    let open QCheck.Gen in
    let atom =
      oneof
        [
          map (fun v -> Predicate.Eq ("name", Value.Text (Printf.sprintf "p%d" v))) (int_bound 6);
          map (fun v -> Predicate.Eq ("id", Value.Int (Int64.of_int v))) (int_bound 120);
          map2
            (fun lo hi ->
              Predicate.Range ("id", Some (Value.Int (Int64.of_int (min lo hi))),
                Some (Value.Int (Int64.of_int (max lo hi)))))
            (int_bound 120) (int_bound 120);
          map
            (fun vs ->
              Predicate.In ("name", List.map (fun v -> Value.Text (Printf.sprintf "p%d" v)) vs))
            (list_size (1 -- 3) (int_bound 6));
        ]
    in
    let rec tree depth =
      if depth = 0 then atom
      else
        frequency
          [
            (3, atom);
            (1, map (fun p -> Predicate.Not p) (tree (depth - 1)));
            (1, map (fun ps -> Predicate.And ps) (list_size (1 -- 3) (tree (depth - 1))));
            (1, map (fun ps -> Predicate.Or ps) (list_size (1 -- 3) (tree (depth - 1))));
          ]
    in
    tree 2
  in
  (* One shared table: build once, query many. *)
  let table =
    lazy
      (let pager = Pager.create () in
       let t = Table.create pager ~name:"fuzz" ~schema:small_schema in
       let g = Stdx.Prng.create 99L in
       for i = 0 to 119 do
         ignore (Table.insert t (mk_row i (Printf.sprintf "p%d" (Stdx.Prng.int g 6)) None))
       done;
       ignore (Table.create_index t ~column:"name");
       ignore (Table.create_index t ~column:"id");
       t)
  in
  QCheck.Test.make ~name:"executor agrees with naive evaluation" ~count:200 (QCheck.make pred_gen)
    (fun p ->
      let t = Lazy.force table in
      let eval = Predicate.compile small_schema p in
      let expected = ref [] in
      for id = Table.row_count t - 1 downto 0 do
        if eval (Table.peek_row t id) then expected := id :: !expected
      done;
      let got = Array.to_list (Executor.run t ~projection:Executor.Row_ids p).row_ids in
      List.sort compare got = !expected)

let qcheck_csv_roundtrip =
  (* Cells drawn from the hostile alphabet: quotes, commas, bare CR,
     LF (so CR-LF pairs arise), and empty cells (string_size 0). All
     survive because render quotes any cell containing a delimiter and
     parse preserves everything inside quotes verbatim. *)
  let cell =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; 'z'; ' ' ]) (0 -- 8))
  in
  QCheck.Test.make ~name:"csv render/parse roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 5) (list_size (1 -- 5) cell)))
    (fun rows -> Csv.parse (Csv.render rows) = Ok rows)

let qcheck_index_vs_scan =
  QCheck.Test.make ~name:"index scan = seq scan on random data" ~count:30
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 10))
    (fun names ->
      let pager = Pager.create () in
      let t = Table.create pager ~name:"t" ~schema:small_schema in
      List.iteri (fun i n -> ignore (Table.insert t (mk_row i (string_of_int n) None))) names;
      ignore (Table.create_index t ~column:"name");
      List.for_all
        (fun k ->
          let v = Value.Text (string_of_int k) in
          let via_index = Executor.run t ~projection:Executor.Row_ids (Predicate.Eq ("name", v)) in
          let expected = List.length (List.filter (fun n -> n = k) names) in
          Array.length via_index.row_ids = expected)
        [ 0; 1; 5; 10 ])

(* A view frozen between two random runs of inserts, deletes and
   vacuums answers every index lookup, IN list, range and query exactly
   as a naive sorted list of the rows stored at freeze time. Index
   entries include dead-but-unvacuumed rows; queries return live ones
   only. *)
type view_op = Ins of int | Del of int | Vac

let qcheck_frozen_view_vs_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> Ins k) (int_bound 11));
          (3, map (fun i -> Del i) (int_bound 1000));
          (1, return Vac);
        ])
  in
  let print_op = function Ins k -> Printf.sprintf "ins %d" k | Del i -> Printf.sprintf "del %d" i | Vac -> "vac" in
  let print_ops ops = String.concat "; " (List.map print_op ops) in
  QCheck.Test.make ~name:"frozen view = freeze-time sorted-list model" ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> print_ops a ^ " | freeze | " ^ print_ops b)
       QCheck.Gen.(pair (list_size (0 -- 80) op) (list_size (0 -- 80) op)))
    (fun (before, after) ->
      let pager = Pager.create () in
      let t = Table.create pager ~name:"t" ~schema:small_schema in
      ignore (Table.create_index t ~column:"id");
      ignore (Table.create_index ~kind:Table_index.Hash t ~column:"name");
      let name k = Printf.sprintf "n%d" (k mod 5) in
      (* Per row id: its key and whether it is live, dead, or reclaimed. *)
      let keys = Stdx.Vec.create () and states = Stdx.Vec.create () in
      let apply = function
        | Ins k ->
            ignore (Table.insert t (mk_row k (name k) None));
            Stdx.Vec.push keys k;
            Stdx.Vec.push states `Live
        | Del i ->
            let n = Stdx.Vec.length keys in
            if n > 0 then begin
              let id = i mod n in
              ignore (Table.delete t id : bool);
              if Stdx.Vec.get states id = `Live then Stdx.Vec.set states id `Dead
            end
        | Vac ->
            Table.vacuum t;
            Stdx.Vec.iteri (fun id s -> if s = `Dead then Stdx.Vec.set states id `Gone) states
      in
      List.iter apply before;
      let view = Table.freeze t in
      (* (key, id, live) of every stored row, sorted by key then id. *)
      let model =
        List.filter_map Fun.id
          (List.init (Stdx.Vec.length keys) (fun id ->
               match Stdx.Vec.get states id with
               | `Gone -> None
               | s -> Some (Stdx.Vec.get keys id, id, s = `Live)))
        |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      List.iter apply after;
      let ids_where f = Array.of_list (List.filter_map (fun (k, id, live) -> if f k live then Some id else None) model) in
      let btree = Option.get (Read_view.index_on view ~column:"id") in
      let hash = Option.get (Read_view.index_on view ~column:"name") in
      let int_ k = Value.Int (Int64.of_int k) in
      let keys_probed = List.init 14 (fun k -> k - 1) in
      List.for_all
        (fun k ->
          Table_index.lookup btree (int_ k) = ids_where (fun k' _ -> k' = k)
          && Table_index.lookup hash (Value.Text (name k))
             = Array.of_list
                 (List.sort compare
                    (Array.to_list (ids_where (fun k' _ -> name k' = name k))))
          && (Executor.run_view view ~projection:Executor.Row_ids (Predicate.Eq ("id", int_ k))).row_ids
             = ids_where (fun k' live -> live && k' = k))
        keys_probed
      && List.for_all
           (fun (lo, hi) ->
             Table_index.range btree ?lo:(Option.map int_ lo) ?hi:(Option.map int_ hi) ()
             = Some
                 (ids_where (fun k _ ->
                      Option.fold ~none:true ~some:(fun lo -> k >= lo) lo
                      && Option.fold ~none:true ~some:(fun hi -> k <= hi) hi)))
           [ (Some 2, Some 7); (None, Some 4); (Some 9, None); (None, None); (Some 6, Some 3) ]
      && Table_index.lookup_many btree [ int_ 3; int_ 1; int_ 3; int_ 20 ]
         = Array.of_list (List.sort compare (Array.to_list (ids_where (fun k _ -> k = 1 || k = 3))))
      && Read_view.live_count view = Array.length (ids_where (fun _ live -> live)))

(* ---------------- Join ---------------- *)

let join_schema_left =
  Schema.create
    [ { name = "id"; ty = TInt; nullable = false }; { name = "k"; ty = TInt; nullable = true } ]

let mk_join_tables ?(index_left = true) ?(index_right = false) left right =
  let db = Database.create () in
  let tl = Database.create_table db ~name:"l" ~schema:join_schema_left in
  let tr = Database.create_table db ~name:"r" ~schema:join_schema_left in
  let load t rows =
    List.iteri
      (fun i k ->
        ignore
          (Table.insert t
             [| Value.Int (Int64.of_int i); (match k with Some k -> Value.Int (Int64.of_int k) | None -> Value.Null) |]))
      rows
  in
  load tl left;
  load tr right;
  (* One indexed side, one scan side, so both postings paths run. *)
  if index_left then ignore (Table.create_index tl ~column:"k");
  if index_right then ignore (Table.create_index tr ~column:"k");
  (db, tl, tr)

let brute_pairs tl tr =
  let lv = Table.freeze tl and rv = Table.freeze tr in
  let acc = ref [] in
  Read_view.scan lv (fun l lrow ->
      Read_view.scan rv (fun r rrow ->
          match (lrow.(1), rrow.(1)) with
          | Value.Null, _ | _, Value.Null -> ()
          | a, b -> if Value.equal a b then acc := (l, r) :: !acc));
  List.sort compare !acc

let test_join_equi_matches_naive () =
  let left = List.map (fun k -> if k = 7 then None else Some (k mod 5)) (List.init 40 Fun.id) in
  let right = List.map (fun k -> if k = 3 then None else Some (k mod 7)) (List.init 25 Fun.id) in
  let _db, tl, tr = mk_join_tables left right in
  let jr =
    Executor.run_join ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k" ~on_right:"k"
      Join.Equi
  in
  check_bool "equi = brute force" true (Array.to_list jr.Join.pairs = brute_pairs tl tr);
  check_bool "pairs sorted" true
    (let l = Array.to_list jr.Join.pairs in
     l = List.sort_uniq compare l)

let test_join_buckets_overlap_dedup () =
  (* Rows 0..9 all carry k=1. Two buckets both listing tag 1 on both
     sides: the cross product arises twice but must be emitted once. *)
  let _db, tl, tr = mk_join_tables (List.init 4 (fun _ -> Some 1)) (List.init 3 (fun _ -> Some 1)) in
  let spec =
    Join.Buckets
      [| ([ Value.Int 1L ], [ Value.Int 1L ]); ([ Value.Int 1L ], [ Value.Int 1L ]) |]
  in
  let jr =
    Executor.run_join ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k" ~on_right:"k"
      spec
  in
  check_int "deduped cross product" 12 (Array.length jr.Join.pairs);
  check_int "bucket count" 2 (Array.length jr.Join.bucket_pairs);
  (* Per-bucket counts are pre-dedup: what the server observes. *)
  check_int "bucket 0 candidates" 12 jr.Join.bucket_pairs.(0)

let test_join_skips_dead_rows () =
  let _db, tl, tr =
    mk_join_tables ~index_right:true
      (List.init 10 (fun _ -> Some 1))
      (List.init 6 (fun _ -> Some 1))
  in
  ignore (Table.delete tl 0 : bool);
  ignore (Table.delete tr 5 : bool);
  let jr =
    Executor.run_join ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k" ~on_right:"k"
      (Join.Buckets [| ([ Value.Int 1L ], [ Value.Int 1L ]) |])
  in
  check_int "only live pairs" 45 (Array.length jr.Join.pairs);
  check_bool "no dead ids" true
    (Array.for_all (fun (l, r) -> l <> 0 && r <> 5) jr.Join.pairs)

let test_join_pool_matches_sequential () =
  let left = List.map (fun k -> Some (k mod 11)) (List.init 200 Fun.id) in
  let right = List.map (fun k -> Some (k mod 13)) (List.init 150 Fun.id) in
  let _db, tl, tr = mk_join_tables left right in
  let spec =
    Join.Buckets (Array.init 10 (fun i -> ([ Value.Int (Int64.of_int i) ], [ Value.Int (Int64.of_int i) ])))
  in
  let run pool =
    Executor.run_join ?pool ~left:(Table.freeze tl) ~right:(Table.freeze tr) ~on_left:"k"
      ~on_right:"k" spec
  in
  let seq = run None in
  Stdx.Task_pool.with_pool ~domains:4 (fun pool ->
      let par = run (Some pool) in
      check_bool "pairs identical under 4 domains" true (seq.Join.pairs = par.Join.pairs);
      check_bool "bucket counts identical" true
        (seq.Join.bucket_pairs = par.Join.bucket_pairs));
  Stdx.Task_pool.with_pool ~domains:1 (fun pool ->
      let one = run (Some pool) in
      check_bool "1-domain pool = sequential" true (seq.Join.pairs = one.Join.pairs))

(* ---------------- Multi-table isolation ---------------- *)

let test_multi_table_journal_isolated () =
  let db = Database.create () in
  let events = ref [] in
  Database.set_journal db (Some (fun m -> events := m :: !events));
  let ta = Database.create_table db ~name:"a" ~schema:small_schema in
  let tb = Database.create_table db ~name:"b" ~schema:small_schema in
  ignore (Table.insert ta (mk_row 0 "x" None));
  ignore (Table.insert tb (mk_row 0 "y" None));
  ignore (Table.delete ta 0 : bool);
  Table.vacuum ta;
  let tables_of ev =
    match ev with
    | Journal.Created_table { name; _ } -> name
    | Journal.Created_index { table; _ } -> table
    | Journal.Inserted { table; _ } | Journal.Inserted_batch { table; _ } -> table
    | Journal.Deleted { table; _ } -> table
    | Journal.Vacuumed { table } -> table
  in
  let for_table n = List.filter (fun e -> tables_of e = n) !events in
  check_int "a: create + insert + delete + vacuum" 4 (List.length (for_table "a"));
  check_int "b: create + insert only" 2 (List.length (for_table "b"));
  check_bool "b saw no vacuum" true
    (List.for_all (function Journal.Vacuumed _ -> false | _ -> true) (for_table "b"))

let test_multi_table_vacuum_epoch_isolated () =
  let db = Database.create () in
  let ta = Database.create_table db ~name:"a" ~schema:small_schema in
  let tb = Database.create_table db ~name:"b" ~schema:small_schema in
  for i = 0 to 9 do
    ignore (Table.insert ta (mk_row i "a" None));
    ignore (Table.insert tb (mk_row i "b" None))
  done;
  let vb_before = Table.freeze tb in
  ignore (Table.delete ta 0 : bool);
  ignore (Table.delete ta 1 : bool);
  Table.vacuum ta;
  (* Vacuuming [a] must not move [b]'s epoch or disturb its frozen
     view; [a]'s own epoch must move (the view contract). *)
  let vb_after = Table.freeze tb in
  check_int "b epoch unchanged" (Read_view.epoch vb_before) (Read_view.epoch vb_after);
  check_bool "a epoch advanced" true
    (Read_view.epoch (Table.freeze ta) > Read_view.epoch vb_before || Table.live_count ta = 8);
  let count v =
    let n = ref 0 in
    Read_view.scan v (fun _ _ -> incr n);
    !n
  in
  check_int "old b view intact" 10 (count vb_before);
  check_int "a compacted" 8 (Table.live_count ta);
  (* freeze_pair resolves both and fails cleanly on unknown names. *)
  check_bool "freeze_pair ok" true (Database.freeze_pair db "a" "b" <> None);
  check_bool "freeze_pair unknown" true (Database.freeze_pair db "a" "zz" = None)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sqldb"
    [
      ( "value",
        [
          Alcotest.test_case "compare order" `Quick test_value_compare_order;
          Alcotest.test_case "heap bytes" `Quick test_value_heap_bytes;
          Alcotest.test_case "hash/pp" `Quick test_value_hash_consistent;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "duplicates" `Quick test_schema_rejects_duplicates;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/read" `Quick test_table_insert_read;
          Alcotest.test_case "pages grow" `Quick test_table_pages_grow;
          Alcotest.test_case "scan" `Quick test_table_scan;
          Alcotest.test_case "insert_batch equivalent" `Quick test_table_insert_batch_equivalent;
          Alcotest.test_case "insert_batch all-or-nothing" `Quick
            test_table_insert_batch_all_or_nothing;
        ] );
      ( "btree",
        [
          Alcotest.test_case "matches naive" `Quick test_index_matches_naive;
          Alcotest.test_case "lookup_many dedups" `Quick test_index_lookup_many_dedups;
          Alcotest.test_case "range" `Quick test_index_range;
          Alcotest.test_case "incremental" `Quick test_index_incremental_after_create;
          Alcotest.test_case "sizes" `Quick test_index_sizes;
        ] );
      ( "hash_index",
        [
          Alcotest.test_case "matches naive" `Quick test_hash_index_matches_naive;
          Alcotest.test_case "no range support" `Quick test_hash_index_no_range;
          Alcotest.test_case "flat probe cost" `Quick test_hash_index_probe_cost_flat;
          Alcotest.test_case "sizes" `Quick test_hash_index_sizes;
        ] );
      ( "pager",
        [
          Alcotest.test_case "cold/warm" `Quick test_pager_cold_warm;
          Alcotest.test_case "stats" `Quick test_pager_stats_accumulate;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "pager counters exact under domains" `Quick
            test_pager_counters_exact_multi_domain;
          Alcotest.test_case "run_view matches run" `Quick test_run_view_matches_run;
          Alcotest.test_case "view isolated from mutations" `Quick
            test_view_isolated_from_mutations;
          Alcotest.test_case "freeze allocation constant" `Quick test_freeze_allocation_constant;
          Alcotest.test_case "index probes match fixture" `Quick test_index_probes_match_fixture;
          Alcotest.test_case "frozen index rejects writes" `Quick test_frozen_index_rejects_writes;
        ] );
      ( "executor",
        [
          Alcotest.test_case "plans" `Quick test_executor_plans;
          Alcotest.test_case "correctness" `Quick test_executor_correctness;
          Alcotest.test_case "residual filter" `Quick test_executor_residual_filter;
          Alcotest.test_case "select * heap cost" `Quick test_executor_select_star_touches_heap;
          Alcotest.test_case "or union" `Quick test_executor_or_union;
          Alcotest.test_case "or/not" `Quick test_executor_or_and_not;
        ] );
      ( "join",
        [
          Alcotest.test_case "equi matches naive" `Quick test_join_equi_matches_naive;
          Alcotest.test_case "bucket overlap dedup" `Quick test_join_buckets_overlap_dedup;
          Alcotest.test_case "skips dead rows" `Quick test_join_skips_dead_rows;
          Alcotest.test_case "pool matches sequential" `Quick test_join_pool_matches_sequential;
        ] );
      ( "multi-table",
        [
          Alcotest.test_case "journal isolation" `Quick test_multi_table_journal_isolated;
          Alcotest.test_case "vacuum epoch isolation" `Quick
            test_multi_table_vacuum_epoch_isolated;
        ] );
      ("database", [ Alcotest.test_case "catalog" `Quick test_database_catalog ]);
      ("predicate", [ Alcotest.test_case "compile/columns" `Quick test_predicate_compile_columns ]);
      ( "dml",
        [
          Alcotest.test_case "table delete" `Quick test_table_delete;
          Alcotest.test_case "table update" `Quick test_table_update;
          Alcotest.test_case "sql delete/update" `Quick test_sql_delete_update;
          Alcotest.test_case "vacuum reclaims" `Quick test_table_vacuum_reclaims;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "avg_row_bytes tracks deletes" `Quick
            test_avg_row_bytes_tracks_deletes;
          Alcotest.test_case "vacuum roundtrip" `Quick test_columnar_vacuum_roundtrip;
          Alcotest.test_case "restore-then-grow deterministic" `Quick
            test_restore_then_grow_deterministic;
          Alcotest.test_case "column storage words bound" `Quick test_column_storage_words_bound;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse basic" `Quick test_csv_parse_basic;
          Alcotest.test_case "parse quoting" `Quick test_csv_parse_quoting;
          Alcotest.test_case "render roundtrip" `Quick test_csv_render_roundtrip;
          Alcotest.test_case "typed rows" `Quick test_csv_typed_rows;
          Alcotest.test_case "untyped roundtrip" `Quick test_csv_untyped_roundtrip;
        ] );
      ( "properties",
        q
          [
            qcheck_index_vs_scan;
            qcheck_executor_vs_naive;
            qcheck_csv_roundtrip;
            qcheck_frozen_view_vs_model;
          ] );
    ]
