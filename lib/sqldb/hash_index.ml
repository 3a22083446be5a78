(* Postgres hash entries are hash code + item pointer: ~20 bytes with
   line pointer; pages target ~75% fill. *)
let entry_bytes = 20
let fill = 0.75

let entries_per_page pager =
  max 1 (int_of_float (float_of_int (Pager.config pager).page_size *. fill /. float_of_int entry_bytes))

(* Number of primary bucket pages: next power of two that keeps the
   average bucket within one page, like Postgres's splitting rule. *)
let bucket_pages pager p =
  let epp = entries_per_page pager in
  let needed = max 1 ((Postings.entries p + epp - 1) / epp) in
  let rec pow2 n = if n >= needed then n else pow2 (2 * n) in
  pow2 1

let size_bytes pager p = bucket_pages pager p * (Pager.config pager).page_size

let lookup pager rel p key =
  Pager.charge_probe pager;
  let n_buckets = bucket_pages pager p in
  let bucket = (Value.hash key land max_int) mod n_buckets in
  Pager.touch pager rel bucket;
  let ids, _ = Postings.find p key in
  let n = Array.length ids in
  (* Entries beyond one page's worth of this key spill into overflow
     pages chained off the bucket. Overflow page numbers live above the
     primary space. *)
  for i = 1 to (n - 1) / entries_per_page pager do
    Pager.touch pager rel (n_buckets + (bucket * 64) + i)
  done;
  Pager.charge_rows pager n;
  ids
