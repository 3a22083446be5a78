(** Persistent postings: the sorted multimap from key values to row ids
    behind both index access methods.

    A weight-balanced binary tree keyed by {!Value.compare}. Each node
    holds one key's row ids in insertion order plus its subtree's key
    and entry counts, so "entries before this key" — the position a
    B-tree page model needs — is one root-to-node descent. {!add}
    copies the root-to-key path and returns a new version; every older
    version stays valid and unchanged, so snapshotting an index is
    keeping its current value.

    Versions form a single line: {!add} must only be applied to the
    newest version. A key's ids live in an array shared by the versions
    that know the key, and [add] appends in place past the last slot
    any existing version reads — the same append-only sharing as the
    table's column vectors. Readers of older versions on other domains
    never read a slot that is being written. *)

type t

val empty : t

val add : t -> Value.t -> int -> t
(** One more entry mapping [key] to [id], after the key's existing
    entries. O(log keys) amortized. *)

val entries : t -> int
(** Entries (key, id pairs) in total. *)

val distinct_keys : t -> int

val key_bytes : t -> int
(** Sum of {!Value.index_key_bytes} over all entries — the B-tree
    page model's entry sizing. *)

val find : t -> Value.t -> int array * int
(** The key's ids (a fresh array, insertion order; [[||]] when the key
    is absent) and the number of entries whose key sorts strictly
    before it. *)

val range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> int array * int
(** Ids of every entry with [lo <= key <= hi] (either bound may be
    open), keys in order and each key's ids in insertion order, plus
    the number of entries whose key sorts strictly before [lo] (0 when
    [lo] is open). Empty when [lo > hi]. *)
