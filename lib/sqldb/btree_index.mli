(** B-tree page model over a {!Postings.t}.

    Logically a B-tree index is the sorted multimap {!Postings} keeps.
    This module models its PostgreSQL layout for the pager: entries are
    packed into 8 KiB leaf pages in key order (so equal keys are
    contiguous, and an equality lookup touches [height] internal pages
    plus [⌈matches / entries_per_leaf⌉] consecutive leaves), and
    internal fanout determines the height. Sizes reported by
    {!size_bytes} feed the Table I ciphertext-expansion experiment.

    Every function is a pure read of one postings version plus pager
    charges, safe from any domain. *)

val lookup : Pager.t -> Pager.rel -> Postings.t -> Value.t -> int array
(** Row ids for an equality match, in insertion order; touches the
    root-to-leaf path and the key's leaves. *)

val range : Pager.t -> Pager.rel -> Postings.t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int array
(** Inclusive range scan over keys. *)

val height : Pager.t -> Postings.t -> int
val leaf_pages : Pager.t -> Postings.t -> int
val page_count : Pager.t -> Postings.t -> int

val size_bytes : Pager.t -> Postings.t -> int
(** page_count × page size. *)
