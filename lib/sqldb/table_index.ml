(* lint: guarded-by Table.writer (live indexes mutate only on the write path; frozen copies never) *)
type kind = Btree | Hash

type t = {
  kind : kind;
  name : string;
  pager : Pager.t;
  rel : Pager.rel;
  frozen : bool;
  mutable postings : Postings.t;
}

let create kind pager ~name =
  { kind; name; pager; rel = Pager.make_rel pager ~name; frozen = false; postings = Postings.empty }

let kind t = t.kind
let name t = t.name

(* Adding to an older postings version would append into id arrays
   that newer versions read. *)
let set t postings =
  if t.frozen then invalid_arg ("Table_index: " ^ t.name ^ " is frozen");
  t.postings <- postings

let insert t key id = set t (Postings.add t.postings key id)
let clear t = set t Postings.empty
let freeze t = { t with frozen = true }

let lookup t key =
  match t.kind with
  | Btree -> Btree_index.lookup t.pager t.rel t.postings key
  | Hash -> Hash_index.lookup t.pager t.rel t.postings key

let union_ids arrays =
  let all = Array.concat arrays in
  Array.sort (fun (a : int) b -> compare a b) all;
  let n = Array.length all in
  if n = 0 then all
  else begin
    let out = Stdx.Vec.create ~capacity:n () in
    Array.iteri (fun i id -> if i = 0 || id <> all.(i - 1) then Stdx.Vec.push out id) all;
    Stdx.Vec.to_array out
  end

let lookup_many t keys = union_ids (List.map (lookup t) keys)

let range t ?lo ?hi () =
  match t.kind with
  | Btree -> Some (Btree_index.range t.pager t.rel t.postings ?lo ?hi ())
  | Hash -> None

let postings t = t.postings
let entry_count t = Postings.entries t.postings
let distinct_keys t = Postings.distinct_keys t.postings

let size_bytes t =
  match t.kind with
  | Btree -> Btree_index.size_bytes t.pager t.postings
  | Hash -> Hash_index.size_bytes t.pager t.postings
