(** Query planner and executor.

    Implements the two query shapes of the paper's evaluation:
    - [SELECT ID FROM t WHERE …] — answered from indexes alone when the
      predicate allows (an index-only scan; "these queries only require
      that the DBMS scan the indexes", §VI-B);
    - [SELECT * FROM t WHERE …] — additionally fetches each matching
      row from its heap page and charges transfer bytes.

    Planning: an [Eq]/[In] predicate over an indexed column becomes an
    index (multi-)lookup; a conjunction uses the first indexable leg
    and filters the rest; a disjunction whose legs are all indexable
    becomes a deduplicated union of index lookups (the WRE proxy's
    server-side OR of tag IN-lists); anything else is a sequential
    scan.

    Every query reads a frozen {!Read_view.t}; {!run} freezes the
    table first. {!run_view} and {!run_traverse} differ only in where
    their candidate ids come from; one shared core does the rest — the
    visibility check, the residual re-check, projection, the per-query
    pager window, and the process-wide [Obs.Metrics] feed (plan
    counts, candidate/returned rows, a wall-time histogram). When
    tracing is on, each run emits an [executor.run_view] /
    [executor.run_traverse] span with an [executor.plan] event. *)

type projection =
  | Row_ids  (** SELECT ID *)
  | All_columns  (** SELECT * *)

type plan_kind =
  | Index_scan of string
  | Or_index_scan of string list
      (** union of per-leg index lookups, one column per OR leg *)
  | Range_traverse of string
      (** ESEDS boundary-tree walk probing the named rtag column *)
  | Seq_scan

type result = {
  row_ids : int array;
  rows : Value.t array array;  (** empty for [Row_ids] *)
  plan : plan_kind;
  wall_ns : float;  (** measured executor time *)
  stats : Pager.stats;
      (** this query's own pager charges: domain-local deltas, so they
          stay exact while other queries run on other domains *)
}

val explain : Table.t -> Predicate.t -> plan_kind
(** The plan that {!run} would choose, without executing. *)

val run : Table.t -> projection:projection -> Predicate.t -> result
(** [run_view (Table.freeze table)]: the table as of now, safe from any
    domain and alongside writers. *)

val run_join :
  ?pool:Stdx.Task_pool.t ->
  left:Read_view.t ->
  right:Read_view.t ->
  on_left:string ->
  on_right:string ->
  Join.spec ->
  Join.result
(** The two-table join plan (see {!Join} for modes and contracts):
    [Equi] hash-joins on value equality, [Buckets] runs the tag-bucket
    join of the encrypted path — per-bucket postings from both views'
    ON-column indexes, cross products fanned across [pool] in bucket
    order, candidate pairs sorted + deduplicated, byte-identical to
    the sequential run at 1 domain. *)

val run_view : ?pool:Stdx.Task_pool.t -> Read_view.t -> projection:projection -> Predicate.t -> result
(** Execute against a frozen epoch snapshot ({!Table.freeze}), safe to
    call from any domain. When [pool] is given, the per-tag index
    probes of multi-key plans (rewritten WRE IN-lists, server-side OR
    legs) fan out across its domains; results are combined in index
    order and unions sort + dedup, so [row_ids]/[rows] are identical
    regardless of scheduling, and with no pool (or one domain) the
    execution is byte-identical to the sequential path. [stats] is this
    query's own pager delta, exact even under concurrent queries:
    probe tasks measure domain-local deltas that are summed into the
    caller's window. *)

val run_traverse :
  ?pool:Stdx.Task_pool.t ->
  Read_view.t ->
  tree:Range_tree.t ->
  tag_column:string ->
  roots:int64 array ->
  projection:projection ->
  Predicate.t ->
  result
(** The ESEDS range plan: expand each canonical-cover root of [roots]
    through [Range_tree.traverse] into leaf bucket tags, probe the
    B-tree/hash index on [tag_column] (the rtag column) for each, and
    re-check the full server predicate over the candidates. One task
    per subtree root fans across [pool]; per-root probe results are
    sorted + deduplicated and roots combine through a sort + dedup
    union, so the result is byte-identical at any domain count and to
    the flat tag IN-list plan over the same range. Unknown root
    pseudonyms expand to nothing (total, never an error); a view with
    no index on [tag_column] degrades to a filtered sequential scan.
    Feeds the [range.*] Obs counters (nodes visited, leaf probes) and
    histograms (cover roots, probes per query). *)
