(** A table's index on one column: a {!Postings.t} version plus the
    page model of its access method.

    The live index a table maintains swaps in a new postings version on
    every insert; {!freeze} captures the current one in O(1), and the
    captured index answers every lookup as of that moment, from any
    domain, however the live index changes afterwards. *)

type kind = Btree | Hash

type t

val create : kind -> Pager.t -> name:string -> t
val kind : t -> kind
val name : t -> string

val insert : t -> Value.t -> int -> unit
(** One more entry; ids of a key must arrive in ascending order (the
    table inserts in row-id order). Only the table's writer calls this.
    Raises [Invalid_argument] on a frozen index. *)

val clear : t -> unit
(** Drop every entry (vacuum rebuilds from the surviving rows). Raises
    [Invalid_argument] on a frozen index. *)

val freeze : t -> t
(** The index as of now: shares the postings version and the pager
    rel, so page touches land in the same buffer pool. O(1). *)

val lookup : t -> Value.t -> int array
(** Row ids for an equality match, in insertion order. *)

val lookup_many : t -> Value.t list -> int array
(** OR-of-equalities: the per-key lookups in list order, then
    {!union_ids} — the plan WRE search queries compile to. *)

val union_ids : int array list -> int array
(** Sorted, deduplicated union of id arrays. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int array option
(** [None] for hash indexes — they cannot serve range scans, and the
    planner falls back to a sequential scan. *)

val postings : t -> Postings.t
val entry_count : t -> int
val distinct_keys : t -> int
val size_bytes : t -> int
