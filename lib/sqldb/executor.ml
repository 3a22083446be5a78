type projection = Row_ids | All_columns

type plan_kind =
  | Index_scan of string
  | Or_index_scan of string list
  | Range_traverse of string
  | Seq_scan

type result = {
  row_ids : int array;
  rows : Value.t array array;
  plan : plan_kind;
  wall_ns : float;
  stats : Pager.stats;
}

let m_queries = Obs.Metrics.counter "executor.queries_total"
let m_plan_index = Obs.Metrics.counter "executor.plan_index_total"
let m_plan_or = Obs.Metrics.counter "executor.plan_or_index_total"
let m_plan_seq = Obs.Metrics.counter "executor.plan_seq_total"
let m_plan_traverse = Obs.Metrics.counter "executor.plan_range_traverse_total"
let m_trav_nodes = Obs.Metrics.counter "range.nodes_visited_total"
let m_trav_leaves = Obs.Metrics.counter "range.leaf_probes_total"
let h_trav_roots = Obs.Metrics.histogram "range.cover_roots"
let h_trav_leaves = Obs.Metrics.histogram "range.leaf_probes"
let m_candidates = Obs.Metrics.counter "executor.candidates_total"
let m_returned = Obs.Metrics.counter "executor.rows_returned_total"
let h_wall = Obs.Metrics.histogram "executor.wall_ns"

(* The first Eq/In/Range leg over an indexed column, searched shallowly
   through conjunctions. The access is a superset of the leg it serves
   (exact for a pure leg), so callers re-check the full predicate when
   the plan does not cover it alone. The planner is parameterized over
   [index_of] so the same logic plans against a live table ([explain])
   or a frozen read view. *)
let rec indexable index_of p =
  match p with
  | Predicate.Eq (col, v) -> Option.map (fun idx -> (col, `Eq (idx, v))) (index_of col)
  | Predicate.In (col, vs) -> Option.map (fun idx -> (col, `In (idx, vs))) (index_of col)
  | Predicate.Range (col, lo, hi) -> (
      (* Only B-trees serve range scans. *)
      match index_of col with
      | Some idx when Table_index.kind idx = Table_index.Btree -> Some (col, `Range (idx, lo, hi))
      | Some _ | None -> None)
  | Predicate.And ps -> List.find_map (indexable index_of) ps
  | Predicate.True | Predicate.Or _ | Predicate.Not _ -> None

(* A disjunction is index-servable when every leg is: the candidate set
   is then the deduplicated union of the per-leg accesses (the WRE
   proxy's server-side OR of tag IN-lists). Nested ORs flatten. *)
let or_accesses index_of legs =
  let rec go legs acc =
    match legs with
    | [] -> Some acc
    | Predicate.Or sub :: rest -> (
        match go sub acc with Some acc -> go rest acc | None -> None)
    | leg :: rest -> (
        match indexable index_of leg with
        | Some pair -> go rest (pair :: acc)
        | None -> None)
  in
  Option.map List.rev (go legs [])

type access =
  [ `Eq of Table_index.t * Value.t
  | `In of Table_index.t * Value.t list
  | `Range of Table_index.t * Value.t option * Value.t option ]

type planned = P_index of string * access | P_or of (string * access) list | P_seq

let plan_of index_of p =
  match indexable index_of p with
  | Some (col, access) -> P_index (col, access)
  | None -> (
      match p with
      | Predicate.Or legs -> (
          match or_accesses index_of legs with
          | Some ((_ :: _) as pairs) -> P_or pairs
          | Some [] | None -> P_seq)
      | _ -> P_seq)

let explain table p =
  match plan_of (fun column -> Table.index_on table ~column) p with
  | P_index (col, _) -> Index_scan col
  | P_or pairs -> Or_index_scan (List.map fst pairs)
  | P_seq -> Seq_scan

let index_of view column = Read_view.index_on view ~column

let seq_scan view =
  let acc = Stdx.Vec.create () in
  Read_view.scan view (fun id _row -> Stdx.Vec.push acc id);
  (Seq_scan, Stdx.Vec.to_array acc)

(* [Task_pool.map_array] with exact per-query pager accounting: every
   task measures its own domain-local pager delta, and the deltas of
   tasks that ran on another domain are added to [workers], which the
   core sums into the caller's window. Concurrent unrelated queries
   never pollute the numbers. *)
let fan_out ?pool workers xs f =
  let self_dom = (Domain.self () :> int) in
  let outcomes =
    Stdx.Task_pool.map_array ?pool xs (fun x ->
        let b = Pager.local_stats () in
        let y = f x in
        (y, (Domain.self () :> int), Pager.diff_stats b (Pager.local_stats ())))
  in
  Array.map
    (fun (y, dom, d) ->
      if dom <> self_dom then workers := Pager.sum_stats !workers d;
      y)
    outcomes

(* Candidates of an index-planned query: one probe per key of an
   IN-list and per OR leg, fanned across [pool]. A single-access plan
   returns its ids verbatim; multi-probe plans (IN, OR) union with sort
   + dedup — exactly what [Table_index.lookup_many] computes, with the
   same lookups in the same order, so the result and the pager charges
   do not depend on how probes are scheduled. An access that fails at
   run time (range over a hash index) sends the query to a sequential
   scan. *)
let index_candidates ?pool view p workers =
  let probes_of : access -> (unit -> int array option) list = function
    | `Eq (idx, v) -> [ (fun () -> Some (Table_index.lookup idx v)) ]
    | `In (idx, vs) -> List.map (fun v () -> Some (Table_index.lookup idx v)) vs
    | `Range (idx, lo, hi) -> [ (fun () -> Table_index.range idx ?lo ?hi ()) ]
  in
  let run_probes kind probes ~union =
    let outcomes = fan_out ?pool workers (Array.of_list probes) (fun probe -> probe ()) in
    if Array.exists Option.is_none outcomes then seq_scan view
    else
      match Array.to_list (Array.map Option.get outcomes) with
      | [ ids ] when not union -> (kind, ids)
      | id_arrays -> (kind, Table_index.union_ids id_arrays)
  in
  let plan, ids =
    match plan_of (index_of view) p with
    | P_index (col, access) ->
        run_probes (Index_scan col) (probes_of access)
          ~union:(match access with `In _ -> true | `Eq _ | `Range _ -> false)
    | P_or pairs ->
        run_probes
          (Or_index_scan (List.map fst pairs))
          (List.concat_map (fun (_, access) -> probes_of access) pairs)
          ~union:true
    | P_seq -> seq_scan view
  in
  (plan, ids, [])

let plan_label = function
  | Index_scan c -> "index(" ^ c ^ ")"
  | Or_index_scan cs -> "or_index(" ^ String.concat "," cs ^ ")"
  | Range_traverse c -> "range_traverse(" ^ c ^ ")"
  | Seq_scan -> "seq"

(* The one executor core. [candidates] computes the plan and candidate
   ids (plus any extra trace attributes); everything after is shared:
   the visibility check, the residual re-check, projection and
   transfer charges, the per-query pager window, plan counters and the
   [executor.plan] trace event. *)
let execute ~span view ~projection p candidates =
  Obs.Metrics.incr m_queries;
  Obs.Trace.with_span span @@ fun () ->
  let before = Pager.local_stats () in
  let t0 = Stdx.Clock.now_ns () in
  let eval = Predicate.compile (Read_view.schema view) p in
  let workers = ref Pager.zero_stats in
  let plan, candidate_ids, extra_attrs = candidates workers in
  (* Index entries may point at tombstoned tuples; drop them (the
     visibility check a real executor performs). *)
  let candidate_ids =
    if Read_view.live_count view = Read_view.row_count view then candidate_ids
    else Array.of_list (List.filter (Read_view.is_live view) (Array.to_list candidate_ids))
  in
  (* Residual filter. Index results are checked against the full
     predicate; for a pure index leg this is a no-op re-check on peeked
     rows (an index-only scan does not touch the heap — visibility-map
     style — matching the paper's SELECT ID behaviour). An OR plan
     always re-checks: each leg's access may over-approximate its leg,
     and so does a range traversal. *)
  let needs_filter =
    match (plan, p) with
    | Index_scan col, Predicate.Eq (c, _) when c = col -> false
    | Index_scan col, Predicate.In (c, _) when c = col -> false
    | Index_scan col, Predicate.Range (c, _, _) when c = col -> false
    | _ -> true
  in
  let row_ids =
    if needs_filter then
      Array.of_list
        (List.filter (fun id -> eval (Read_view.peek_row view id)) (Array.to_list candidate_ids))
    else candidate_ids
  in
  let rows =
    match projection with
    | Row_ids ->
        (* Returning ids still ships ~8 bytes per hit across the wire. *)
        Pager.charge_transfer (Read_view.pager view) (8 * Array.length row_ids);
        [||]
    | All_columns -> Array.map (Read_view.read_row view) row_ids
  in
  let wall_ns = Stdx.Clock.now_ns () -. t0 in
  let stats = Pager.sum_stats (Pager.diff_stats before (Pager.local_stats ())) !workers in
  (match plan with
  | Index_scan _ -> Obs.Metrics.incr m_plan_index
  | Or_index_scan _ -> Obs.Metrics.incr m_plan_or
  | Range_traverse _ -> Obs.Metrics.incr m_plan_traverse
  | Seq_scan -> Obs.Metrics.incr m_plan_seq);
  Obs.Metrics.add m_candidates (Array.length candidate_ids);
  Obs.Metrics.add m_returned (Array.length row_ids);
  Obs.Metrics.observe h_wall wall_ns;
  if Obs.Trace.is_enabled () then
    Obs.Trace.event "executor.plan"
      ~attrs:
        ((("plan", plan_label plan) :: [ ("epoch", string_of_int (Read_view.epoch view)) ])
        @ extra_attrs
        @ [
            ("candidates", string_of_int (Array.length candidate_ids));
            ("rows", string_of_int (Array.length row_ids));
          ]);
  { row_ids; rows; plan; wall_ns; stats }

(* The two-table plan: delegate to [Join], which owns bucket fan-out,
   pair normalization and the join.* metrics. Kept behind the executor
   so planning stays one surface. *)
let run_join = Join.run

(* The read path: the core against a frozen [Read_view.t], with the
   per-tag probes of multi-key plans (the IN-list of a rewritten WRE
   query, the legs of a server-side OR) optionally fanned across a task
   pool. Probe results combine index-ordered and unions sort + dedup,
   so [row_ids]/[rows] do not depend on scheduling; with no pool (or a
   1-domain pool) the probes run in list order. Pager counts are
   scheduling-independent too: the set of page touches is fixed by the
   plan, and the pager's atomic accounting turns each distinct page
   into exactly one miss whichever domain gets there first. *)
let run_view ?pool view ~projection p =
  execute ~span:"executor.run_view" view ~projection p (index_candidates ?pool view p)

(* A freeze costs O(number of indexes), so a read of the live table is
   a read of a view taken now. *)
let run table ~projection p = run_view (Table.freeze table) ~projection p

(* The ESEDS range plan (DESIGN.md §5k): the query ships the canonical
   cover of a range as O(log B) encrypted-tree roots; the server
   expands each root through [Range_tree.traverse] to its leaf bucket
   tags and probes the rtag index. One task per subtree root fans
   across the pool; each root's probe set is a sorted+deduplicated
   lookup and roots combine through [Table_index.union_ids], so the
   candidate set — and hence [row_ids]/[rows] — is byte-identical at
   any domain count, the same determinism contract as [run_view]. The core re-checks
   candidates against the full server predicate, which both filters
   conjunctive companions and keeps the traversal interchangeable with
   the flat tag IN-list plan. *)
let run_traverse ?pool view ~tree ~tag_column ~roots ~projection p =
  execute ~span:"executor.run_traverse" view ~projection p @@ fun workers ->
  let plan, ids, visited, leaves =
    match index_of view tag_column with
    | None ->
        (* No rtag index on this view: degrade to a sequential scan;
           the core re-checks the predicate over every row. *)
        let plan, ids = seq_scan view in
        (plan, ids, 0, 0)
    | Some idx ->
        let outcomes =
          fan_out ?pool workers roots (fun root ->
              match Range_tree.traverse tree ~root with
              | None ->
                  (* Unknown root pseudonym: an empty subtree, not an
                     error — traversal stays total for any query. *)
                  ([||], 0, 0)
              | Some (leaf_tags, visited) ->
                  let keys = List.map (fun tag -> Value.Int tag) (Array.to_list leaf_tags) in
                  (Table_index.lookup_many idx keys, visited, Array.length leaf_tags))
        in
        let visited = Array.fold_left (fun acc (_, v, _) -> acc + v) 0 outcomes in
        let leaves = Array.fold_left (fun acc (_, _, l) -> acc + l) 0 outcomes in
        ( Range_traverse tag_column,
          Table_index.union_ids (Array.to_list (Array.map (fun (ids, _, _) -> ids) outcomes)),
          visited,
          leaves )
  in
  Obs.Metrics.add m_trav_nodes visited;
  Obs.Metrics.add m_trav_leaves leaves;
  Obs.Metrics.observe h_trav_roots (float_of_int (Array.length roots));
  Obs.Metrics.observe h_trav_leaves (float_of_int leaves);
  let attrs =
    if Obs.Trace.is_enabled () then
      [
        ("roots", string_of_int (Array.length roots));
        ("nodes_visited", string_of_int visited);
        ("leaf_probes", string_of_int leaves);
      ]
    else []
  in
  (plan, ids, attrs)
