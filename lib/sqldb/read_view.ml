(* An immutable point-in-time view of one table: the snapshot a reader
   domain works against while writers keep mutating the live table.
   Nothing is copied. The per-slot vectors are shared with the table by
   pointer — value, page and size backings are append-only (vacuum
   replaces them wholesale instead of mutating shared slots), so
   everything below a frozen length is immutable forever. The one
   backing the table writes in place is [xmax], and only to store a
   delete epoch above this view's, which reads as live here either way.
   Indexes are persistent postings versions captured at freeze time.
   So no later insert/delete/vacuum/checkpoint is observable through
   the view. Built by [Table.freeze] under the table's writer lock;
   every accessor here is a pure read plus pager charges, safe to call
   from any domain. *)

type t = {
  epoch : int;
  name : string;
  schema : Schema.t;
  pager : Pager.t;
  heap_rel : Pager.rel;
  cols : Value.t array array;  (* shared backings; only the first [n] slots of each are ours *)
  n : int;  (* heap slots at freeze time; shared backings may be longer *)
  xmax : int array;  (* shared backing: a row is live here iff its xmax > epoch *)
  row_pages : int array;  (* shared backing *)
  row_sizes : int array;  (* shared backing; physical tuple bytes *)
  n_dead : int;
  cur_page : int;
  cur_fill : int;
  data_bytes : int;
  live_bytes : int;
  rm_cur_page : int;
  rm_cur_fill : int;
  rm_data_bytes : int;
  reclaimed : Value.t array; (* physical sentinel for vacuumed slots *)
  row_bytes : Value.t array -> int; (* logical tuple size, for transfer charges *)
  indexes : (string * Table_index.t) list; (* frozen versions, sorted by column *)
}

let make ~epoch ~name ~schema ~pager ~heap_rel ~cols ~n ~xmax ~row_pages ~row_sizes ~n_dead
    ~cur_page ~cur_fill ~data_bytes ~live_bytes ~rm_cur_page ~rm_cur_fill ~rm_data_bytes
    ~reclaimed ~row_bytes ~indexes =
  { epoch; name; schema; pager; heap_rel; cols; n; xmax; row_pages; row_sizes; n_dead;
    cur_page; cur_fill; data_bytes; live_bytes; rm_cur_page; rm_cur_fill; rm_data_bytes;
    reclaimed; row_bytes; indexes }

let epoch t = t.epoch
let name t = t.name
let schema t = t.schema
let pager t = t.pager

let row_count t = t.n
let live_count t = t.n - t.n_dead

(* Shared backings outlive [n], so every per-row accessor must bound-
   check explicitly rather than rely on the array length. *)
let check t id =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Read_view(%s): row %d out of bounds (rows %d)" t.name id t.n)

let is_live t id =
  check t id;
  t.xmax.(id) > t.epoch

let n_cols t = Array.length t.cols

(* A stored tuple is never empty, so size 0 marks a reclaimed slot. *)
let is_reclaimed t id =
  check t id;
  t.row_sizes.(id) = 0

let peek_row t id =
  if is_reclaimed t id then t.reclaimed else Array.map (fun col -> col.(id)) t.cols

let row_page t id =
  check t id;
  t.row_pages.(id)

let read_row t id =
  let row = peek_row t id in
  Pager.touch t.pager t.heap_rel t.row_pages.(id);
  Pager.charge_rows t.pager 1;
  Pager.charge_transfer t.pager (t.row_bytes row);
  row

let scan t f =
  let last_page = ref (-1) in
  for id = 0 to t.n - 1 do
    let page = t.row_pages.(id) in
    if page <> !last_page then begin
      Pager.touch t.pager t.heap_rel page;
      last_page := page
    end;
    if t.xmax.(id) > t.epoch then f id (peek_row t id)
  done;
  Pager.charge_rows t.pager t.n

let index_on t ~column =
  List.assoc_opt column t.indexes

let indexes t = t.indexes

let cur_page t = t.cur_page
let cur_fill t = t.cur_fill
let data_bytes t = t.data_bytes
let live_bytes t = t.live_bytes
let rm_cur_page t = t.rm_cur_page
let rm_cur_fill t = t.rm_cur_fill
let rm_data_bytes t = t.rm_data_bytes

(* Columnar internals, for the checkpoint serializer: everything the
   wire format needs, without materializing rows. *)

let cell t ~col id =
  check t id;
  t.cols.(col).(id)

let row_size t id =
  check t id;
  t.row_sizes.(id)
