(** Immutable point-in-time view of one table (an epoch snapshot).

    [Table.freeze] publishes one of these under the table's writer
    lock; afterwards every accessor is a pure read plus pager charges,
    so any number of reader domains can query the view while writers
    keep mutating the live table — readers never block writers and
    vice versa. A view is a constant-size record: it shares the
    table's per-slot arrays (column values, pages, sizes, delete
    epochs) by pointer and holds each index's persistent postings
    version, so freezing costs the same at any table size. Later
    mutations — including vacuum and checkpoint — are invisible
    through the view: value, page and size arrays are append-only
    (vacuum swaps in fresh ones), an index insert makes a new postings
    version, and a row counts as live iff its delete epoch ([xmax]) is
    above the view's epoch, so a delete after the freeze never
    shows. *)

type t

val make :
  epoch:int ->
  name:string ->
  schema:Schema.t ->
  pager:Pager.t ->
  heap_rel:Pager.rel ->
  cols:Value.t array array ->
  n:int ->
  xmax:int array ->
  row_pages:int array ->
  row_sizes:int array ->
  n_dead:int ->
  cur_page:int ->
  cur_fill:int ->
  data_bytes:int ->
  live_bytes:int ->
  rm_cur_page:int ->
  rm_cur_fill:int ->
  rm_data_bytes:int ->
  reclaimed:Value.t array ->
  row_bytes:(Value.t array -> int) ->
  indexes:(string * Table_index.t) list ->
  t
(** Constructor for [Table.freeze] — not meant for direct use. *)

val epoch : t -> int
(** The table's mutation epoch this view was frozen at. *)

val name : t -> string
val schema : t -> Schema.t
val pager : t -> Pager.t

val row_count : t -> int
(** Heap slots, including tombstones and reclaimed holes. *)

val live_count : t -> int
val is_live : t -> int -> bool

val is_reclaimed : t -> int -> bool
(** True for a slot vacuumed away before the freeze. *)

val peek_row : t -> int -> Value.t array
(** Materialize the row from the column arrays, without any pager
    charge (predicate evaluation). Reclaimed slots return the empty
    sentinel row. *)

val read_row : t -> int -> Value.t array
(** The row with heap page touch, row and transfer charges. Transfer is
    charged at the logical (row-format) tuple size, like the pre-
    columnar engine, so simulated query costs are layout-independent. *)

val scan : t -> (int -> Value.t array -> unit) -> unit
(** Full scan in id order: touches each heap page once, surfaces live
    rows only, charges every slot examined. *)

val index_on : t -> column:string -> Table_index.t option
(** The index on [column] as of the freeze, if one existed then. *)

val indexes : t -> (string * Table_index.t) list

val row_page : t -> int -> int

val cur_page : t -> int
val cur_fill : t -> int
val data_bytes : t -> int
val live_bytes : t -> int
val rm_cur_page : t -> int
val rm_cur_fill : t -> int
val rm_data_bytes : t -> int
(** Heap-cursor and accounting state at freeze time ([rm_*] is the
    row-format shadow layout), so a physical checkpoint taken from the
    view ([Table.snapshot_of_view]) restores byte-identically. *)

(* Columnar internals — the checkpoint serializer streams these
   directly instead of materializing rows. *)

val n_cols : t -> int

val cell : t -> col:int -> int -> Value.t
(** The stored value of (column, row); [Null] for a reclaimed slot. *)

val row_size : t -> int -> int
(** Physical (columnar) tuple bytes of a heap slot; 0 once reclaimed. *)
