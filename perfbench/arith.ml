(* The benchmark's own arithmetic, kept pure so test_arith.ml can pin
   it: percentiles and the tail rule, span self time, and the error
   accounting behind [correct]/[attempted]/[failed]. *)

(* Nearest-rank percentile of an ascending array: the value at 1-based
   rank ceil(p/100 * n). The epsilon keeps float noise in p*n/100
   (99.9 * 1000 / 100 = 999.0000000000001) from bumping the rank. *)
let rank n p = max 1 (min n (int_of_float (ceil ((p *. float_of_int n /. 100.0) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Arith.percentile: no samples" else sorted.(rank n p - 1)

(* Samples strictly above the nearest-rank p-th percentile. *)
let beyond n p = n - rank n p

(* The tail rule: report the highest percentile of this ladder that
   still has at least ten samples beyond it, so a tail figure always
   rests on more than a handful of observations. *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_percentile n =
  match List.find_opt (fun p -> beyond n p >= 10) tail_ladder with
  | Some p -> p
  | None -> 50.0

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.0

(* Zero instead of NaN when nothing was measured: a layer a workload
   never enters reports 0, not an undefined ratio. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  request : int;  (** shared by every span of one statement or load *)
  name : string;
  start_ns : float;
  end_ns : float;
}

let duration s = s.end_ns -. s.start_ns

(* Total length of the union of intervals, each clipped to [lo, hi]:
   children that overlap one another (fanned-out work) count once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration less the part of its interval
   its direct children cover. Returned in the input order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start_ns, s.end_ns))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans

(* ---- error accounting ---- *)

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

(* One outcome: [`Ok], [`Failed] (an error or a refusal from the
   system) or [`Wrong] (an answer that disagrees with the plaintext
   reference). *)
let record t outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | `Ok -> ()
  | `Failed -> t.failed <- t.failed + 1
  | `Wrong -> t.wrong <- t.wrong + 1

let merge ts =
  let t = tally () in
  List.iter
    (fun x ->
      t.attempted <- t.attempted + x.attempted;
      t.failed <- t.failed + x.failed;
      t.wrong <- t.wrong + x.wrong)
    ts;
  t

let bad t = t.failed + t.wrong
let error_rate t = ratio (float_of_int (bad t)) (float_of_int t.attempted)
