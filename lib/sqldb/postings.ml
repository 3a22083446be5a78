(* Persistent, path-copying weight-balanced tree (Adams' balance with
   delta = 3, ratio = 2 — the parameters proven correct for single
   insertions). [keys] is the subtree's node count, which is also the
   balance weight; [entries] the subtree's id count, which turns
   "entries before this key" into one descent. *)

type node =
  | Leaf
  | Node of {
      l : node;
      key : Value.t;
      ids : int array;  (* the key's ids in slots [0, n); later slots are free *)
      n : int;
      r : node;
      keys : int;
      entries : int;
    }

type t = { root : node; key_bytes : int }

let empty = { root = Leaf; key_bytes = 0 }

let keys_of = function Leaf -> 0 | Node nd -> nd.keys
let entries_of = function Leaf -> 0 | Node nd -> nd.entries

let node l key ids n r =
  Node { l; key; ids; n; r; keys = keys_of l + keys_of r + 1; entries = entries_of l + entries_of r + n }

let delta = 3
let ratio = 2

(* Rotations toward the light side. [r] (resp. [l]) is the heavy
   child, so it has at least two keys; the last case of each match is
   unreachable and only keeps the match total. *)
let rotate_left l key ids n = function
  | Node { l = rl; key = rk; ids = rids; n = rn; r = rr; _ } when keys_of rl < ratio * keys_of rr ->
      node (node l key ids n rl) rk rids rn rr
  | Node { l = Node { l = a; key = k2; ids = i2; n = n2; r = b; _ }; key = rk; ids = rids; n = rn; r = rr; _ }
    ->
      node (node l key ids n a) k2 i2 n2 (node b rk rids rn rr)
  | r -> node l key ids n r

let rotate_right r key ids n = function
  | Node { l = ll; key = lk; ids = lids; n = ln; r = lr; _ } when keys_of lr < ratio * keys_of ll ->
      node ll lk lids ln (node lr key ids n r)
  | Node { l = ll; key = lk; ids = lids; n = ln; r = Node { l = a; key = k2; ids = i2; n = n2; r = b; _ }; _ }
    ->
      node (node ll lk lids ln a) k2 i2 n2 (node b key ids n r)
  | l -> node l key ids n r

let balance l key ids n r =
  let sl = keys_of l and sr = keys_of r in
  if sl + sr <= 1 then node l key ids n r
  else if sr > delta * sl then rotate_left l key ids n r
  else if sl > delta * sr then rotate_right r key ids n l
  else node l key ids n r

(* Append past slot [n - 1]. No version reads slot [n] or beyond: the
   versions sharing this array know at most [n] ids of the key, and
   only the newest version is ever added to. *)
let append ids n id =
  if n < Array.length ids then begin
    ids.(n) <- id;
    ids
  end
  else begin
    let grown = Array.make (2 * n) 0 in
    Array.blit ids 0 grown 0 n;
    grown.(n) <- id;
    grown
  end

let rec insert tree key id =
  match tree with
  | Leaf -> node Leaf key [| id |] 1 Leaf
  | Node nd ->
      let c = Value.compare key nd.key in
      if c = 0 then
        Node { nd with ids = append nd.ids nd.n id; n = nd.n + 1; entries = nd.entries + 1 }
      else if c < 0 then balance (insert nd.l key id) nd.key nd.ids nd.n nd.r
      else balance nd.l nd.key nd.ids nd.n (insert nd.r key id)

let add t key id = { root = insert t.root key id; key_bytes = t.key_bytes + Value.index_key_bytes key }
let entries t = entries_of t.root
let distinct_keys t = keys_of t.root
let key_bytes t = t.key_bytes

let find t key =
  let rec go before = function
    | Leaf -> ([||], before)
    | Node nd ->
        let c = Value.compare key nd.key in
        if c = 0 then (Array.sub nd.ids 0 nd.n, before + entries_of nd.l)
        else if c < 0 then go before nd.l
        else go (before + entries_of nd.l + nd.n) nd.r
  in
  go 0 t.root

(* Entries whose key sorts before [key] ([inclusive]: at or before). *)
let count_before ~inclusive t key =
  let rec go before = function
    | Leaf -> before
    | Node nd ->
        let c = Value.compare nd.key key in
        if c < 0 || (inclusive && c = 0) then go (before + entries_of nd.l + nd.n) nd.r
        else go before nd.l
  in
  go 0 t.root

let range t ?lo ?hi () =
  let first = match lo with None -> 0 | Some v -> count_before ~inclusive:false t v in
  let last = match hi with None -> entries t | Some v -> count_before ~inclusive:true t v in
  if last <= first then ([||], first)
  else begin
    let out = Array.make (last - first) 0 in
    let after_lo key = match lo with None -> true | Some v -> Value.compare key v >= 0 in
    let before_hi key = match hi with None -> true | Some v -> Value.compare key v <= 0 in
    (* In-order walk pruned to [lo, hi]; [pos] is the next free slot. *)
    let rec walk pos = function
      | Leaf -> pos
      | Node nd ->
          let pos = if after_lo nd.key then walk pos nd.l else pos in
          let pos =
            if after_lo nd.key && before_hi nd.key then begin
              Array.blit nd.ids 0 out pos nd.n;
              pos + nd.n
            end
            else pos
          in
          if before_hi nd.key then walk pos nd.r else pos
    in
    ignore (walk 0 t.root : int);
    (out, first)
  end
