(* Postgres-like layout constants: 16 bytes of line pointer + TID
   overhead per entry, 24-byte page header. *)
let entry_overhead = 16
let internal_entry_bytes = 24

let page_size pager = (Pager.config pager).page_size

let avg_entry_bytes p =
  let entries = Postings.entries p in
  if entries = 0 then 24.0
  else (float_of_int (Postings.key_bytes p) /. float_of_int entries) +. float_of_int entry_overhead

(* Effective leaf fill: sequential/duplicate-heavy keys pack near the
   90% fillfactor; uniformly random unique keys (PRF search tags) cause
   page splits that leave leaves slightly over half full. Interpolate
   on the unique-key fraction — this is what makes an encrypted tag
   index bigger than the plaintext index it replaces (paper Table I's
   "DB + Indexes" growing faster than "DB"). *)
let leaf_fill p =
  let entries = Postings.entries p in
  if entries = 0 then 0.9
  else begin
    let unique_fraction = float_of_int (Postings.distinct_keys p) /. float_of_int entries in
    0.9 -. (0.35 *. unique_fraction)
  end

let entries_per_leaf pager p =
  let usable = float_of_int (page_size pager) *. leaf_fill p in
  max 1 (int_of_float (usable /. avg_entry_bytes p))

let leaf_pages pager p =
  let entries = Postings.entries p in
  if entries = 0 then 1 else (entries + entries_per_leaf pager p - 1) / entries_per_leaf pager p

let fanout pager p =
  let usable = float_of_int (page_size pager) *. leaf_fill p in
  max 2 (int_of_float (usable /. float_of_int internal_entry_bytes))

(* Number of internal levels above the leaves (0 when a single leaf is
   also the root). *)
let height pager p =
  let f = fanout pager p in
  let rec levels pages acc = if pages <= 1 then acc else levels ((pages + f - 1) / f) (acc + 1) in
  levels (leaf_pages pager p) 0

let internal_pages pager p =
  let f = fanout pager p in
  let rec total pages acc =
    if pages <= 1 then acc else
      let above = (pages + f - 1) / f in
      total above (acc + above)
  in
  total (leaf_pages pager p) 0

let page_count pager p = leaf_pages pager p + internal_pages pager p
let size_bytes pager p = page_count pager p * page_size pager

(* Walk root-to-leaf, touching one page per internal level. Internal
   page identity is derived from the leaf position so that lookups of
   nearby keys share upper pages, like a real tree. Page numbering:
   leaves are pages [0, leaf_pages); level l >= 1 starts at
   leaf_pages + (l-1) partitions. *)
let touch_path pager rel p ~leaf =
  let f = fanout pager p in
  let leaves = leaf_pages pager p in
  let base = ref leaves in
  let idx = ref leaf in
  for level = 1 to height pager p do
    idx := !idx / f;
    Pager.touch pager rel (!base + !idx);
    (* Each level above has ceil(prev/f) pages. *)
    let pages_at_level =
      let rec shrink pages l = if l = 0 then pages else shrink ((pages + f - 1) / f) (l - 1) in
      shrink leaves level
    in
    base := !base + pages_at_level
  done

let touch_entry_range pager rel p ~first_entry ~n_entries =
  let epl = entries_per_leaf pager p in
  if n_entries > 0 then begin
    let first_leaf = first_entry / epl in
    let last_leaf = (first_entry + n_entries - 1) / epl in
    touch_path pager rel p ~leaf:first_leaf;
    for leaf = first_leaf to last_leaf do
      Pager.touch pager rel leaf
    done
  end
  else
    (* A miss still descends the tree and reads one leaf. *)
    touch_path pager rel p ~leaf:(min (max 0 (first_entry / epl)) (leaf_pages pager p - 1))

(* Both scans charge the probe, touch the entries' leaves (or, when
   nothing matches, the leaf where the key would sit) and charge one
   row per entry returned. *)
let scan pager rel p (ids, first_entry) =
  touch_entry_range pager rel p ~first_entry ~n_entries:(Array.length ids);
  Pager.charge_rows pager (Array.length ids);
  ids

let lookup pager rel p key =
  Pager.charge_probe pager;
  scan pager rel p (Postings.find p key)

let range pager rel p ?lo ?hi () =
  Pager.charge_probe pager;
  scan pager rel p (Postings.range p ?lo ?hi ())
