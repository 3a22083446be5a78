(** Query-rewriting proxy: the paper's deployment story.

    §I: an efficiently searchable encryption "might be done through a
    query proxy rather than a complex database construction" — the
    CryptDB model. Applications speak plaintext SQL against the
    original schema; the proxy rewrites each statement for the
    encrypted table, sends it to the unmodified server, decrypts the
    answer and applies any residual filtering client-side.

    Rewriting rules for a SELECT:
    - equality / IN on an encrypted column → [col_tag IN (tags…)];
    - predicates on the plaintext key column pass through;
    - [BETWEEN] / [<=] / [>=] / strict [<] [>] / point equality on a
      range-indexed INT column → the ESEDS [Range_traverse] plan when
      the leg sits at conjunctive position (the query ships O(log B)
      canonical-cover roots; the server expands them over the
      encrypted boundary tree, DESIGN.md §5k), the flat
      [col_rtag IN (…)] bucket rewrite otherwise (range under OR/NOT);
      either way the true range stays in the residual, which filters
      edge-bucket false positives ([range.edge_fp_rows_total]);
    - a disjunction whose legs are {e all} server-checkable → the OR of
      the per-leg rewrites (a tag-list union the executor answers as a
      deduplicated union of index lookups); the original plaintext OR
      stays in the residual, which filters bucketized false positives
      and the union's over-approximation exactly;
    - anything else (predicates on non-searchable columns, negations,
      ORs with an unservable leg) cannot be evaluated by the server —
      it stays as a client-side filter over the decrypted rows, and the
      server-side predicate keeps only the AND-legs it can handle. When
      the server predicate degenerates to [True] while real filtering
      remains, the proxy bumps the [proxy.full_scan_total] counter and
      emits a [proxy.full_scan] trace event: the query silently lost
      index service and ships the whole table.

    INSERT statements are encrypted field-by-field.

    Two-table equi-joins
    ([SELECT … FROM a JOIN b ON a.x = b.y [WHERE …]]) rewrite to a
    server-side tag-bucket hash join: the proxy intersects the two join
    columns' profiled supports, emits one bucket per shared plaintext
    holding both sides' full salt-tag lists, and the server
    ({!Sqldb.Executor.run_join}) resolves each bucket to candidate row
    pairs via its tag indexes — custom-free index work, like the
    single-table path. Candidates are a {e superset} of the true join
    (bucketized schemes share tags across plaintexts; 64-bit tags can
    collide), so the proxy decrypts each distinct row once and
    re-verifies every pair on plaintext — constant-time ON-column
    equality, then the WHERE residual over the combined
    [left.col]/[right.col] row — before projecting and applying LIMIT.
    The server observes the bucket structure and per-bucket candidate
    counts: the join-degree distribution of the shared support, the
    leakage {!Attacks} quantifies.

    Every statement runs under a [proxy.execute] trace span with
    parse / rewrite / server-exec / decrypt / residual-filter children,
    and feeds the [proxy.*] statement counters and [query.*_ns] phase
    histograms in {!Obs.Metrics}. *)

type t

val create : Encrypted_db.t -> t
(** A single-table proxy: {!create_multi} with one table. *)

val create_multi : Encrypted_db.t list -> t
(** A proxy over several encrypted tables, keyed by their table names.
    Single-table statements resolve by the statement's FROM name (with
    a fallback to the sole table when exactly one is registered, for
    backward compatibility); joins require exact matches on both
    names. Raises [Invalid_argument] on an empty list or duplicate
    table names. *)

type rewritten = {
  server_sql : string;  (** what actually goes to the DBMS (for logs/tests) *)
  server_predicate : Sqldb.Predicate.t;
  residual : Sqldb.Predicate.t;  (** evaluated client-side after decryption *)
}

val rewrite_select : t -> Sqldb.Sql.select -> (rewritten, string) result
(** Expose the rewrite without executing (tests, EXPLAIN). *)

val rewrite_join :
  t -> Sqldb.Sql.join -> ((string * Sqldb.Value.t list * Sqldb.Value.t list) array, string) result
(** The tag buckets a join compiles to, one per plaintext shared by
    both join columns' profiled supports, in the left support's
    canonical (descending-probability) order:
    [(plaintext, left tags, right tags)]. Exposed for tests, EXPLAIN
    and the join-leakage experiment (which needs bucket ↔ plaintext
    ground truth). Fails when a table is unknown or an ON column is
    not a searchable encrypted column. *)

val range_cover_for :
  t -> table:string -> Sqldb.Predicate.t -> (string * int64 array) option
(** The ESEDS cover a statement's range leg ships — the range column
    and the canonical-cover root pseudonyms — when the predicate pins
    a range column at conjunctive position (bare or ANDed
    [BETWEEN]/[<=]/[>=]/point equality with integer bounds). [None]
    when the flat rtag IN-list rewrite stays in charge (range leg
    under OR/NOT, non-integer bounds, no range leg). Exposed for
    tests and the range-leakage experiment's transcript capture. *)

type query_result = {
  columns : string list;
      (** projected column names (qualified [table.column] for a join) *)
  rows : Sqldb.Value.t array list;  (** decrypted, residual-filtered, projected *)
  affected : int;  (** rows inserted / deleted / updated *)
  server_rows : int;
      (** rows the server returned (incl. bucketized FPs); candidate
          pairs for a join *)
  exec : Sqldb.Executor.result option;
  join_exec : Sqldb.Join.result option;
      (** the server-side join result (candidate pairs, per-bucket
          counts, stats) — [Some] for joins only *)
}

val execute :
  ?pool:Stdx.Task_pool.t ->
  ?view:Sqldb.Read_view.t ->
  t ->
  string ->
  (query_result, string) result
(** Parse plaintext SQL (SELECT / JOIN / INSERT / DELETE / UPDATE
    against the plaintext schema), run it through the encrypted
    database. DELETE and UPDATE decrypt and residual-filter before
    touching rows, so bucketized false positives are never deleted or
    rewritten.

    Every read runs against a frozen epoch snapshot: a SELECT against
    [view] when it snapshots the statement's table (freeze once, query
    many), otherwise against a view frozen at call time — as do the
    row searches of DELETE and UPDATE. [pool] fans a SELECT's per-tag
    index probes and its decrypt/residual-filter/LIMIT pass across
    domains; the decrypted result is identical at any domain count —
    chunked decryption preserves row order and the LIMIT stopping
    point, and with no pool (or a 1-domain pool) the execution is
    byte-identical to the sequential path. Mutations ignore [pool] and
    [view].

    UPDATE is atomic with respect to encryption failures: every
    replacement row is encrypted (and validated) first, and only when
    the whole batch succeeds are old versions tombstoned and new ones
    inserted (MVCC-style) — a replacement value outside the profiled
    distribution fails the statement with the table unchanged.

    SELECT decrypts lazily: decryption, residual filtering and LIMIT
    fuse into one pass over the server's answer, so [LIMIT n] stops
    after the n-th surviving row instead of decrypting the full result
    set (visible as the [edb.rows_decrypted_total] counter).

    A JOIN ignores [view] (a single table's snapshot) and freezes both
    tables' views back to back — epoch-consistent under the
    single-writer discipline every deployment in this repo maintains
    (the server admission queue serializes mutations) — fans the
    per-bucket probes over [pool], and decrypts each distinct candidate
    row once per side (memoized), so a row appearing in many candidate
    pairs costs one decryption. *)
