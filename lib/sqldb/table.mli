(** Heap tables with columnar pages.

    Rows are stored in insertion order, one value vector per column,
    and packed into 8 KiB heap pages as columnar tuples: an 8-byte
    tuple header, a 4-byte line pointer and the row's values inline
    (MAXALIGN'd). No value is shared between tuples — like the
    uncompressed PostgreSQL of the paper's Table I, so the heap size
    does not depend on how often values repeat. The page assignment is
    what makes the cold-cache `SELECT *` experiments faithful: rows
    matching one search tag were inserted at random times, so fetching
    them touches that many distinct heap pages. Simulated query costs
    are layout-independent — read/transfer charges use the logical
    (row-format) tuple size throughout.

    Every read goes through a {!Read_view.t} from {!freeze}, which is
    O(number of indexes): deletes are recorded as per-row delete
    epochs rather than cleared flags, and indexes keep persistent
    postings, so a view shares everything with the table and copies
    nothing. *)

type t

val create : Pager.t -> name:string -> schema:Schema.t -> t
val name : t -> string
val schema : t -> Schema.t
val pager : t -> Pager.t

val insert : t -> Value.t array -> int
(** Validates against the schema, appends, updates every index.
    Returns the new row id. Raises [Invalid_argument] on schema
    violations. *)

val insert_batch : t -> Value.t array array -> int
(** Append many rows in one pass: all rows are validated up front
    (all-or-nothing — a bad row raises before anything is inserted),
    index column positions are resolved once for the whole batch, and
    rows get consecutive ids starting at the returned id. The
    resulting table state (heap pages, accounting, index contents) is
    identical to calling {!insert} on each row in order. *)

val row_count : t -> int
(** Rows ever inserted (live + dead); row ids range over this. *)

val live_count : t -> int
(** Rows not yet deleted. *)

val is_live : t -> int -> bool

val delete : t -> int -> bool
(** Tombstone a row (Postgres-style: the heap tuple and its index
    entries stay until a vacuum; scans and lookups skip it). Returns
    [false] if the row was already dead. Live-byte accounting
    ({!avg_row_bytes}) drops the row immediately; heap pages shrink
    only at {!vacuum}. *)

val update : t -> int -> Value.t array -> int
(** MVCC-style update: tombstone the old version, insert the new one
    (fresh row id, re-indexed). Raises if the old row is dead or the
    new row violates the schema. Without {!vacuum}, every update
    grows the heap and every index by one entry. *)

val vacuum : t -> unit
(** Reclaim dead tuples: rebuild every index from the live rows (so
    [entry_count] and [size_bytes] shrink back to them), drop the dead
    rows' values, and repack live tuples onto a fresh page assignment. Row ids are stable — dead ids stay dead and
    [peek_row] on them returns an empty row afterwards. No-op when
    nothing is dead. *)

val peek_row : t -> int -> Value.t array
(** Materialize from the column vectors without cost accounting
    (for test assertions and internal scans that account separately). *)

val row_page : t -> int -> int
(** Heap page number holding a row. *)

val create_index : ?kind:Table_index.kind -> t -> column:string -> Table_index.t
(** Build (or return the existing) index on a column, backfilling
    current rows. Default access method is [Btree]; at most one index
    per column (asking again with a different kind returns the
    existing index). *)

val index_on : t -> column:string -> Table_index.t option
val indexes : t -> Table_index.t list

(* Epoch-based snapshot reads. *)

val epoch : t -> int
(** Mutation epoch: 0 at creation, bumped by every successful (or
    attempted) mutation — insert, batch, delete, update, vacuum,
    index creation. *)

val freeze : t -> Read_view.t
(** Publish the current epoch as an immutable {!Read_view.t}: under
    the writer lock, take the table's array backings, counters and
    each index's postings version. O(number of indexes) at any table
    size, so every read may take a fresh one. Readers use the view
    from any domain without locking; writers keep mutating the live
    table — neither blocks the other. Must not be called from a
    journal hook (the hook runs under the writer lock). *)

(* Storage accounting (Table I). *)

val heap_pages : t -> int
(** Pages the heap tuples occupy. *)

val heap_bytes : t -> int
val index_bytes : t -> int
val total_bytes : t -> int
(** heap + all indexes. *)

val avg_row_bytes : t -> float
(** Physical tuple bytes per live row. Unlike heap pages, this drops a
    row's contribution as soon as it is deleted — no vacuum needed. *)

val row_model_pages : t -> int
val row_model_bytes : t -> int
(** What the pre-columnar row-format engine (24-byte tuple headers,
    values inline) would occupy for the same rows — the like-for-like
    baseline for the columnar layout. *)

(* Durability hooks. *)

val set_journal : t -> Journal.hook option -> unit
(** Install (or clear) the mutation hook. Each successful mutation is
    reported after it has fully applied in memory; see {!Journal}. *)

type snapshot = {
  s_name : string;
  s_schema : Schema.t;
  s_cols : Value.t array array;  (** per column, one value per heap slot; [Null] where reclaimed *)
  s_live : bool array;
  s_row_pages : int array;
  s_row_sizes : int array;  (** physical tuple bytes per slot; 0 marks a reclaimed slot *)
  s_cur_page : int;
  s_cur_fill : int;
  s_data_bytes : int;
  s_live_bytes : int;
  s_rm_cur_page : int;
  s_rm_cur_fill : int;
  s_rm_data_bytes : int;
  s_indexes : (string * Table_index.kind) list;  (** sorted by column *)
}
(** Physical table state as checkpointed by the storage engine: the
    columnar heap verbatim (column values, tombstones, reclaimed slots,
    page assignment, accounting) plus the index definitions — index
    {e contents} are rebuilt on restore. *)

val snapshot : t -> snapshot
(** Deep copy of the current physical state (via {!freeze}). *)

val snapshot_of_view : Read_view.t -> snapshot
(** Serialize a frozen view — the checkpoint path: the writer lock is
    held only for the {!freeze} itself, never for serialization, so a
    checkpoint no longer pauses readers or writers. *)

val of_snapshot : Pager.t -> snapshot -> t
(** Reconstruct a table from a snapshot, byte-identical to the one
    {!snapshot} saw: same row ids, heap pages, accounting, and index
    entries (including entries of dead-but-unvacuumed tuples). Emits no
    journal events. *)
