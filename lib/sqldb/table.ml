(* lint: guarded-by writer — every mutable field below except the
   Atomic [writer_holder] is read and written only while [writer] is
   held (mutations run inside [mutate]; [epoch]/[freeze] take the lock
   to read). *)

type t = {
  name : string;
  schema : Schema.t;
  pager : Pager.t;
  heap_rel : Pager.rel;
  mutable cols : Value.t Stdx.Vec.t array;
      (* one per schema column, one value per heap slot ([Null] once
         reclaimed). Append-only between vacuums; vacuum swaps in fresh
         vectors so frozen views keep the old backings. *)
  live : bool Stdx.Vec.t;
  mutable row_pages : int Stdx.Vec.t;
  mutable row_sizes : int Stdx.Vec.t;  (* physical tuple bytes per slot; 0 marks a reclaimed slot *)
  mutable n_dead : int;
  mutable cur_page : int;
  mutable cur_fill : int; (* bytes used on the current heap page *)
  mutable data_bytes : int; (* physical tuple bytes, live + dead-but-unvacuumed *)
  mutable live_bytes : int; (* physical tuple bytes of live rows only *)
  (* Row-format shadow accounting: the page cursor the pre-columnar
     engine (24-byte tuple headers, values inline) would be at. Costs
     nothing per row and gives benchmarks an honest like-for-like
     baseline for the columnar layout. *)
  mutable rm_cur_page : int;
  mutable rm_cur_fill : int;
  mutable rm_data_bytes : int;
  indexes : (string, Table_index.t) Hashtbl.t;
  mutable journal : Journal.hook option;
  (* Epoch-based copy-on-write reads: every mutation runs under
     [writer], bumps [epoch] and invalidates the cached frozen view;
     [freeze] rebuilds it at most once per epoch. Readers work against
     the returned [Read_view.t] without taking any lock. *)
  writer : Mutex.t;
  writer_holder : int Atomic.t;
      (* Domain id currently inside [mutate], -1 when free. An Atomic —
         [freeze]/[epoch] read it from arbitrary domains without the
         lock to detect a reentrant call from the journal hook (the
         storage engine's auto-checkpoint) instead of deadlocking on
         the non-reentrant mutex. *)
  mutable epoch : int;
  mutable frozen : Read_view.t option;
}

let set_journal t hook = t.journal <- hook
let emit t m = match t.journal with None -> () | Some hook -> hook m

(* Run a mutation under the writer lock: publish a new epoch and drop
   the cached view so the next [freeze] sees the new state. Journal
   hooks fire inside the critical section — the storage engine's WAL
   append stays ordered with the mutation it records. *)
let self_id () = (Domain.self () :> int)

let mutate t f =
  Mutex.lock t.writer;
  Atomic.set t.writer_holder (self_id ());
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.writer_holder (-1);
      Mutex.unlock t.writer)
    (fun () ->
      t.epoch <- t.epoch + 1;
      t.frozen <- None;
      f ())

let page_header = 24
let row_tuple_header = 24 (* row-format shadow: full header + null bitmap *)
let col_tuple_header = 8 (* columnar tuple: visibility word only *)
let line_pointer = 4
let maxalign n = (n + 7) land lnot 7

let create pager ~name ~schema =
  {
    name;
    schema;
    pager;
    heap_rel = Pager.make_rel pager ~name:(name ^ ".heap");
    cols = Array.map (fun (_ : Schema.column) -> Stdx.Vec.create ()) (Schema.columns schema);
    live = Stdx.Vec.create ();
    row_pages = Stdx.Vec.create ();
    row_sizes = Stdx.Vec.create ();
    n_dead = 0;
    cur_page = 0;
    cur_fill = 0;
    data_bytes = 0;
    live_bytes = 0;
    rm_cur_page = 0;
    rm_cur_fill = 0;
    rm_data_bytes = 0;
    indexes = Hashtbl.create 4;
    journal = None;
    writer = Mutex.create ();
    writer_holder = Atomic.make (-1);
    epoch = 0;
    frozen = None;
  }

let name t = t.name
let schema t = t.schema
let pager t = t.pager

let value_bytes row = Array.fold_left (fun acc v -> acc + Value.heap_bytes v) 0 row

(* Logical (row-format) tuple size — unchanged from the row-storage
   engine: read/transfer charges and the row-model shadow accounting
   both use it, so simulated query costs do not depend on the physical
   layout. *)
let tuple_bytes schema row =
  let data = value_bytes row in
  let null_bitmap = if Array.exists (fun v -> v = Value.Null) row then (Schema.arity schema + 7) / 8 else 0 in
  row_tuple_header + line_pointer + maxalign (data + null_bitmap)

let row_count t = Stdx.Vec.length t.live
let live_count t = row_count t - t.n_dead
let is_live t id = Stdx.Vec.get t.live id

(* Shared sentinel for vacuumed-away tuples: physical identity
   distinguishes it from any real row (all empty arrays are the same
   atom, but no live materialized row of a non-empty schema is empty). *)
let reclaimed : Value.t array = [||]

(* Every stored tuple is at least a header plus a line pointer, so a
   zero size can only mean vacuum reclaimed the slot. *)
let is_reclaimed_slot t id = Stdx.Vec.get t.row_sizes id = 0

let value_at t c id = Stdx.Vec.get t.cols.(c) id

let peek_row t id =
  if is_reclaimed_slot t id then reclaimed else Array.map (fun col -> Stdx.Vec.get col id) t.cols

(* Heap bookkeeping shared by insert and insert_batch: page assignment
   and per-slot vec pushes. Index maintenance is the caller's job (the
   batch path resolves index column positions once for the whole
   batch). *)
let append_row t row =
  Array.iteri (fun c v -> Stdx.Vec.push t.cols.(c) v) row;
  let bytes = col_tuple_header + line_pointer + maxalign (value_bytes row) in
  let usable = (Pager.config t.pager).page_size - page_header in
  if t.cur_fill + bytes > usable && t.cur_fill > 0 then begin
    t.cur_page <- t.cur_page + 1;
    t.cur_fill <- 0
  end;
  t.cur_fill <- t.cur_fill + bytes;
  t.data_bytes <- t.data_bytes + bytes;
  t.live_bytes <- t.live_bytes + bytes;
  let rm = tuple_bytes t.schema row in
  if t.rm_cur_fill + rm > usable && t.rm_cur_fill > 0 then begin
    t.rm_cur_page <- t.rm_cur_page + 1;
    t.rm_cur_fill <- 0
  end;
  t.rm_cur_fill <- t.rm_cur_fill + rm;
  t.rm_data_bytes <- t.rm_data_bytes + rm;
  let id = Stdx.Vec.length t.live in
  Stdx.Vec.push t.row_pages t.cur_page;
  Stdx.Vec.push t.row_sizes bytes;
  Stdx.Vec.push t.live true;
  id

(* Index column positions, resolved once per call instead of once per
   row per index. *)
let index_positions t =
  Hashtbl.fold (fun col idx acc -> (Schema.column_index t.schema col, idx) :: acc) t.indexes []

let insert_unlocked t row =
  let id = append_row t row in
  Hashtbl.iter
    (fun col idx -> Table_index.insert idx row.(Schema.column_index t.schema col) id)
    t.indexes;
  (* A fresh copy, not the caller's array: the hook may retain it and
     the caller may reuse its array. *)
  emit t (Journal.Inserted { table = t.name; row = peek_row t id });
  id

let insert t row =
  (match Schema.validate_row t.schema row with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Table.insert(%s): %s" t.name e));
  mutate t (fun () -> insert_unlocked t row)

let insert_batch t rows =
  Array.iteri
    (fun i row ->
      match Schema.validate_row t.schema row with
      | Ok () -> ()
      | Error e -> invalid_arg (Printf.sprintf "Table.insert_batch(%s): row %d: %s" t.name i e))
    rows;
  mutate t @@ fun () ->
  let positions = index_positions t in
  let first = Stdx.Vec.length t.live in
  Array.iter
    (fun row ->
      let id = append_row t row in
      List.iter (fun (pos, idx) -> Table_index.insert idx row.(pos) id) positions)
    rows;
  if Array.length rows > 0 then
    emit t
      (Journal.Inserted_batch
         {
           table = t.name;
           rows = Array.init (Array.length rows) (fun i -> peek_row t (first + i));
         });
  first

let delete_unlocked t id =
  if Stdx.Vec.get t.live id then begin
    Stdx.Vec.set t.live id false;
    t.n_dead <- t.n_dead + 1;
    (* Dead tuples keep their heap storage until vacuum, but stop
       counting toward the live-byte totals that [avg_row_bytes]
       reports. *)
    t.live_bytes <- t.live_bytes - Stdx.Vec.get t.row_sizes id;
    emit t (Journal.Deleted { table = t.name; id });
    true
  end
  else false

let delete t id = mutate t (fun () -> delete_unlocked t id)

let row_page t id = Stdx.Vec.get t.row_pages id

let read_row t id =
  let row = peek_row t id in
  Pager.touch t.pager t.heap_rel (row_page t id);
  Pager.charge_rows t.pager 1;
  Pager.charge_transfer t.pager (tuple_bytes t.schema row);
  row

let scan t f =
  let n = row_count t in
  let last_page = ref (-1) in
  for id = 0 to n - 1 do
    (* Dead tuples still cost a page visit (they occupy the heap until
       vacuumed) but are not surfaced. *)
    let page = Stdx.Vec.get t.row_pages id in
    if page <> !last_page then begin
      Pager.touch t.pager t.heap_rel page;
      last_page := page
    end;
    if Stdx.Vec.get t.live id then f id (peek_row t id)
  done;
  Pager.charge_rows t.pager n

let update t id row =
  if not (Stdx.Vec.get t.live id) then
    invalid_arg (Printf.sprintf "Table.update(%s): row %d is dead" t.name id);
  (match Schema.validate_row t.schema row with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Table.update(%s): %s" t.name e));
  mutate t @@ fun () ->
  ignore (delete_unlocked t id);
  insert_unlocked t row

let vacuum t =
  mutate t @@ fun () ->
  if t.n_dead > 0 then begin
    let positions = index_positions t in
    let n = row_count t in
    (* Repack the heap into fresh vectors, so frozen views keep the old
       backings: live tuples get a new page assignment (keeping the
       physical size recorded at insert); newly dead ones drop their
       index entries and become reclaimed slots — [Null] cells, size 0.
       Row ids are stable, and a dead id inherits the current page so
       scans touch no extra pages on its account. *)
    let cols' = Array.map (fun _ -> Stdx.Vec.create ()) t.cols in
    let pages' = Stdx.Vec.create () in
    let sizes' = Stdx.Vec.create () in
    t.cur_page <- 0;
    t.cur_fill <- 0;
    t.data_bytes <- 0;
    t.live_bytes <- 0;
    t.rm_cur_page <- 0;
    t.rm_cur_fill <- 0;
    t.rm_data_bytes <- 0;
    let usable = (Pager.config t.pager).page_size - page_header in
    for id = 0 to n - 1 do
      if Stdx.Vec.get t.live id then begin
        let bytes = Stdx.Vec.get t.row_sizes id in
        if t.cur_fill + bytes > usable && t.cur_fill > 0 then begin
          t.cur_page <- t.cur_page + 1;
          t.cur_fill <- 0
        end;
        t.cur_fill <- t.cur_fill + bytes;
        t.data_bytes <- t.data_bytes + bytes;
        t.live_bytes <- t.live_bytes + bytes;
        let rm = tuple_bytes t.schema (peek_row t id) in
        if t.rm_cur_fill + rm > usable && t.rm_cur_fill > 0 then begin
          t.rm_cur_page <- t.rm_cur_page + 1;
          t.rm_cur_fill <- 0
        end;
        t.rm_cur_fill <- t.rm_cur_fill + rm;
        t.rm_data_bytes <- t.rm_data_bytes + rm;
        Array.iteri (fun c col -> Stdx.Vec.push cols'.(c) (Stdx.Vec.get col id)) t.cols;
        Stdx.Vec.push sizes' bytes
      end
      else begin
        if not (is_reclaimed_slot t id) then
          List.iter (fun (pos, idx) -> Table_index.remove idx (value_at t pos id) id) positions;
        Array.iter (fun col -> Stdx.Vec.push col Value.Null) cols';
        Stdx.Vec.push sizes' 0
      end;
      Stdx.Vec.push pages' t.cur_page
    done;
    t.cols <- cols';
    t.row_pages <- pages';
    t.row_sizes <- sizes';
    emit t (Journal.Vacuumed { table = t.name })
  end

let create_index ?(kind = Table_index.Btree) t ~column =
  mutate t @@ fun () ->
  match Hashtbl.find_opt t.indexes column with
  | Some idx -> idx
  | None ->
      let col_pos = Schema.column_index t.schema column in
      let idx = Table_index.create kind t.pager ~name:(t.name ^ "." ^ column ^ ".idx") in
      for id = 0 to row_count t - 1 do
        (* Dead-but-unvacuumed tuples are indexed (as live tables do);
           reclaimed slots have no values to index. *)
        if not (is_reclaimed_slot t id) then Table_index.insert idx (value_at t col_pos id) id
      done;
      Hashtbl.replace t.indexes column idx;
      emit t (Journal.Created_index { table = t.name; column; kind });
      idx

let index_on t ~column = Hashtbl.find_opt t.indexes column
let indexes t = Hashtbl.fold (fun _ idx acc -> idx :: acc) t.indexes []

(* Storage accounting: the pages the heap tuples occupy. *)

let page_size t = (Pager.config t.pager).page_size
let heap_pages t = if t.data_bytes = 0 then 0 else t.cur_page + 1
let heap_bytes t = heap_pages t * page_size t
let index_bytes t = Hashtbl.fold (fun _ idx acc -> acc + Table_index.size_bytes idx) t.indexes 0
let total_bytes t = heap_bytes t + index_bytes t

let avg_row_bytes t =
  if live_count t = 0 then 0.0 else float_of_int t.live_bytes /. float_of_int (live_count t)

let row_model_pages t = if t.rm_data_bytes = 0 then 0 else t.rm_cur_page + 1
let row_model_bytes t = row_model_pages t * page_size t

let epoch t =
  if Atomic.get t.writer_holder = self_id () then t.epoch
  else begin
    Mutex.lock t.writer;
    let e = t.epoch in
    Mutex.unlock t.writer;
    e
  end

let build_view t =
  let n = row_count t in
  let cols = Array.map (fun col -> fst (Stdx.Vec.backing col)) t.cols in
  let row_pages, _ = Stdx.Vec.backing t.row_pages in
  let row_sizes, _ = Stdx.Vec.backing t.row_sizes in
  Read_view.make ~epoch:t.epoch ~name:t.name ~schema:t.schema ~pager:t.pager ~heap_rel:t.heap_rel
    ~cols ~n
    ~live:(Array.init n (Stdx.Vec.get t.live))
    ~row_pages ~row_sizes ~n_dead:t.n_dead ~cur_page:t.cur_page ~cur_fill:t.cur_fill
    ~data_bytes:t.data_bytes ~live_bytes:t.live_bytes ~rm_cur_page:t.rm_cur_page
    ~rm_cur_fill:t.rm_cur_fill ~rm_data_bytes:t.rm_data_bytes ~reclaimed
    ~row_bytes:(fun row -> tuple_bytes t.schema row)
    ~indexes:
      (Hashtbl.fold (fun col idx acc -> (col, Table_index.freeze idx) :: acc) t.indexes []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* Publish the current epoch as an immutable read view. Cached: the
   copy (one visibility bitmap plus index freezes — the columnar
   storage itself is shared by pointer, see Read_view) happens at most
   once per epoch, and only when a reader actually asks. *)
let freeze t =
  if Atomic.get t.writer_holder = self_id () then
    (* Reentrant call from inside this domain's own mutation — the
       journal hook triggering the storage engine's auto-checkpoint.
       Each hook fires right after its mutation is applied, so the
       state is exactly the WAL prefix through the record being
       logged. Skip the cache: a compound mutation (update = delete +
       insert) may not be finished, so this view must not be served to
       later same-epoch readers. *)
    build_view t
  else begin
    Mutex.lock t.writer;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) @@ fun () ->
    match t.frozen with
    | Some v -> v
    | None ->
        let v = build_view t in
        t.frozen <- Some v;
        v
  end

(* Physical snapshot: the exact columnar heap state, including
   tombstones and reclaimed slots, so a restored table is
   byte-identical — same row ids, page assignment and accounting —
   even after vacuums that a logical replay could not reproduce. *)

type snapshot = {
  s_name : string;
  s_schema : Schema.t;
  s_cols : Value.t array array;
  s_live : bool array;
  s_row_pages : int array;
  s_row_sizes : int array;
  s_cur_page : int;
  s_cur_fill : int;
  s_data_bytes : int;
  s_live_bytes : int;
  s_rm_cur_page : int;
  s_rm_cur_fill : int;
  s_rm_data_bytes : int;
  s_indexes : (string * Table_index.kind) list;
}

(* Serialize a frozen view. Runs entirely off the writer lock, so a
   checkpoint can serialize a multi-second snapshot while writers (and
   other readers) proceed against newer epochs. *)
let snapshot_of_view v =
  let n = Read_view.row_count v in
  {
    s_name = Read_view.name v;
    s_schema = Read_view.schema v;
    s_cols = Array.init (Read_view.n_cols v) (fun col -> Array.init n (Read_view.cell v ~col));
    s_live = Array.init n (Read_view.is_live v);
    s_row_pages = Array.init n (Read_view.row_page v);
    s_row_sizes = Array.init n (Read_view.row_size v);
    s_cur_page = Read_view.cur_page v;
    s_cur_fill = Read_view.cur_fill v;
    s_data_bytes = Read_view.data_bytes v;
    s_live_bytes = Read_view.live_bytes v;
    s_rm_cur_page = Read_view.rm_cur_page v;
    s_rm_cur_fill = Read_view.rm_cur_fill v;
    s_rm_data_bytes = Read_view.rm_data_bytes v;
    s_indexes = List.map (fun (col, idx) -> (col, Table_index.kind idx)) (Read_view.indexes v);
  }

let snapshot t = snapshot_of_view (freeze t)

let of_snapshot pager s =
  let t = create pager ~name:s.s_name ~schema:s.s_schema in
  let n = Array.length s.s_live in
  t.cols <- Array.map Stdx.Vec.of_array s.s_cols;
  let n_dead = ref 0 in
  for id = 0 to n - 1 do
    Stdx.Vec.push t.live s.s_live.(id);
    Stdx.Vec.push t.row_pages s.s_row_pages.(id);
    Stdx.Vec.push t.row_sizes s.s_row_sizes.(id);
    if not s.s_live.(id) then incr n_dead
  done;
  t.n_dead <- !n_dead;
  t.cur_page <- s.s_cur_page;
  t.cur_fill <- s.s_cur_fill;
  t.data_bytes <- s.s_data_bytes;
  t.live_bytes <- s.s_live_bytes;
  t.rm_cur_page <- s.s_rm_cur_page;
  t.rm_cur_fill <- s.s_rm_cur_fill;
  t.rm_data_bytes <- s.s_rm_data_bytes;
  (* Rebuild indexes directly: dead-but-unvacuumed tuples keep their
     entries (as live tables do), reclaimed slots have none. Bypasses
     [create_index] so no journal events fire during restore. *)
  List.iter
    (fun (column, kind) ->
      let col_pos = Schema.column_index t.schema column in
      let idx = Table_index.create kind t.pager ~name:(t.name ^ "." ^ column ^ ".idx") in
      for id = 0 to n - 1 do
        if not (is_reclaimed_slot t id) then Table_index.insert idx (value_at t col_pos id) id
      done;
      Hashtbl.replace t.indexes column idx)
    s.s_indexes;
  t
