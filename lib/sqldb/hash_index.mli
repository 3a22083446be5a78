(** Hash-index page model over a {!Postings.t} (PostgreSQL
    [USING hash]).

    WRE search tags are uniformly random 64-bit integers queried only
    by equality — precisely the workload hash indexes exist for: O(1)
    bucket-page touches per probe regardless of table size, and index
    entries that store only the key's hash (fixed 8 bytes + line
    pointer) rather than the key itself. The [btree-vs-hash] ablation
    in the bench harness compares the two on tag lookups.

    Physical model: directory of bucket pages sized for ~75% fill;
    a lookup hashes the key, touches its bucket page (plus chained
    overflow pages when a bucket outgrows one page), then the executor
    fetches heap rows as usual. Every function is a pure read of one
    postings version plus pager charges, safe from any domain. *)

val lookup : Pager.t -> Pager.rel -> Postings.t -> Value.t -> int array
(** Row ids for an equality match, in insertion order; touches bucket
    (+overflow) pages. *)

val bucket_pages : Pager.t -> Postings.t -> int
val size_bytes : Pager.t -> Postings.t -> int
