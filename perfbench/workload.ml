(* Seeded inputs for the three workloads and the plaintext mirror that
   checks the system's answers. Everything here is a pure function of
   the workload and the seed: the program under test only ever sees
   the generated rows and SQL text. *)

open Sqldb

type kind = Read_mix | Mixed_rw | Bulk_load

let kinds = [ ("read-mix", Read_mix); ("mixed-rw", Mixed_rw); ("bulk-load", Bulk_load) ]
let name k = fst (List.find (fun (_, k') -> k' = k) kinds)
let table = "main"
let columns = Sparta.Generator.encrypted_columns
let scheme = Wre.Scheme.Poisson 1000.0
let rows_for = function Read_mix | Mixed_rw -> 20_000 | Bulk_load -> 40_000

(* Largest true result size a read may have. read-mix drops the
   1,001-10,000 bucket (a p99 there needs minutes per run); mixed-rw
   keeps point reads small so decryption stays a minor share. *)
let max_result = function Read_mix -> 1000 | Mixed_rw | Bulk_load -> 100

(* Every fifth mixed-rw statement is a write: 80% reads, 20% writes,
   the writes cycling INSERT, UPDATE, DELETE. *)
let write_every = 5

type write_kind = Insert | Update | Delete

type stmt =
  | Read of { column : string; value : string; sql : string }
  | Write of { kind : write_kind; id : int; sql : string }

let sql_of = function Read r -> r.sql | Write w -> w.sql

type t = {
  seed : int;
  rows : Value.t array array;  (** loaded before the run, ids 0..n-1 *)
  dist_of : string -> Dist.Empirical.t;  (** profile: loaded rows plus rows to be inserted *)
  lists : stmt array array;  (** one statement list per client *)
}

(* The dataset is fixed — the SPARTA stand-in every bench/ experiment
   loads — so runs differ only in what the seed drives: which
   statements are sent, which rows are written, the key and the weak
   randomness. Seeds per purpose, all derived from the run's seed. *)
let data_seed = 20_190_624L
let query_seed seed = Int64.of_int ((7919 * seed) + 3)
let key_seed seed = Int64.of_int ((104_729 * seed) + 1)
let edb_seed seed = Int64.of_int ((15_485_863 * seed) + 2)
let shuffle_seed seed = Int64.of_int ((32_452_843 * seed) + 5)

let quote v = Sql.print_value (Value.Text v)

let read_stmt (q : Sparta.Query_gen.query) =
  Read
    {
      column = q.column;
      value = q.value;
      sql = Printf.sprintf "SELECT * FROM %s WHERE %s = %s" table q.column (quote q.value);
    }

let text_of row col = Sparta.Generator.column_string row ~column:col

let counts_of rows col =
  let h = Hashtbl.create 4096 in
  Array.iter
    (fun r ->
      let v = text_of r col in
      Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
    rows;
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) h [] |> List.sort compare

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Stdx.Prng.int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [n] equality reads over the encrypted columns, with Query_gen's
   size rule: candidate values grouped by true result size into the
   logarithmic buckets of [Query_gen.bucket_of] (values above
   [max_result] excluded), the non-empty buckets taken round-robin and
   a value drawn uniformly within its bucket. Draws within a bucket are
   without replacement (a fresh seeded permutation per pass), so every
   run covers each bucket's pool evenly instead of leaving its tail to
   which large values a seed happened to draw. *)
let queries ~kind ~seed ~rows n =
  let buckets = Array.make 6 [] in
  List.iter
    (fun column ->
      List.iter
        (fun (value, expected) ->
          if expected <= max_result kind then begin
            let b = Sparta.Query_gen.bucket_of expected in
            buckets.(b) <- { Sparta.Query_gen.column; value; expected } :: buckets.(b)
          end)
        (counts_of rows column))
    columns;
  let pools =
    Array.of_list (List.filter (fun p -> Array.length p > 0) (Array.to_list (Array.map Array.of_list buckets)))
  in
  let g = Stdx.Prng.create (query_seed seed) in
  let cursor = Array.map (fun p -> shuffle g p; 0) pools in
  Array.init n (fun i ->
      let b = i mod Array.length pools in
      let pool = pools.(b) in
      if cursor.(b) = Array.length pool then begin
        shuffle g pool;
        cursor.(b) <- 0
      end;
      cursor.(b) <- cursor.(b) + 1;
      pool.(cursor.(b) - 1))

(* Client [c]'s mixed-rw list. Clients own disjoint ids: UPDATE and
   DELETE targets are loaded ids congruent to [c] (split between the
   two kinds so no id is both updated and deleted), and INSERTs take
   fresh ids from the client's own block above the loaded range. The
   final state is therefore the same under any interleaving. *)
let mixed_list ~clients ~c ~n ~per_client ~reads ~extra ~g =
  let writes = per_client / write_every in
  let per_kind = (writes + 2) / 3 in
  let owned = Array.of_list (List.filter (fun id -> id mod clients = c) (List.init n Fun.id)) in
  shuffle g owned;
  let pick parity =
    Array.of_list (List.filter (fun id -> id / clients mod 2 = parity) (Array.to_list owned))
  in
  let upd = pick 0 and del = pick 1 in
  if Array.length upd < per_kind || Array.length del < per_kind then
    invalid_arg "Workload.mixed_list: too few ids per client for the write count";
  let ins = ref 0 and up = ref 0 and de = ref 0 and rd = ref 0 in
  Array.init per_client (fun i ->
      if i mod write_every <> write_every - 1 then begin
        let q = reads.((!rd * clients) + c) in
        incr rd;
        q
      end
      else
        match i / write_every mod 3 with
        | 0 ->
            let row = extra.((c * per_kind) + !ins) in
            incr ins;
            let id = match row.(0) with Value.Int x -> Int64.to_int x | _ -> invalid_arg "Workload: non-integer id" in
            Write
              {
                kind = Insert;
                id;
                sql = Sql.print_statement (Sql.Insert { table; values = Array.to_list row });
              }
        | 1 ->
            let id = upd.(!up) in
            let col = List.nth columns (!up mod List.length columns) in
            (* A value from a row still to be inserted: profiled, so
               the re-encryption never meets an unknown plaintext. *)
            let donor = extra.((((c * per_kind) + !up) * 7919) mod Array.length extra) in
            incr up;
            Write
              {
                kind = Update;
                id;
                sql =
                  Sql.print_statement
                    (Sql.Update
                       {
                         table;
                         assignments = [ (col, Value.Text (text_of donor col)) ];
                         where = Predicate.Eq ("id", Value.Int (Int64.of_int id));
                       });
              }
        | _ ->
            let id = del.(!de) in
            incr de;
            Write
              {
                kind = Delete;
                id;
                sql =
                  Sql.print_statement
                    (Sql.Delete { table; where = Predicate.Eq ("id", Value.Int (Int64.of_int id)) });
              })

(* [per_client] is the statement-list length per client: long enough
   that a run never exhausts it (read lists are replayed cyclically,
   mixed-rw lists are not, since their writes must not repeat). *)
let generate ~kind ~seed ~clients ~per_client =
  let n = rows_for kind in
  let per_kind = (per_client / write_every + 2) / 3 in
  let n_extra = match kind with Mixed_rw -> clients * per_kind | Read_mix | Bulk_load -> 0 in
  let all =
    Array.of_seq (Sparta.Generator.rows (Sparta.Generator.create ~seed:data_seed) ~n:(n + n_extra))
  in
  let rows = Array.sub all 0 n and extra = Array.sub all n n_extra in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:Sparta.Generator.schema ~columns (Array.to_seq all)
  in
  let lists =
    match kind with
    | Bulk_load -> Array.make clients [||]
    | Read_mix ->
        let qs = Array.map read_stmt (queries ~kind ~seed ~rows (clients * per_client)) in
        Array.init clients (fun c -> Array.init per_client (fun i -> qs.((i * clients) + c)))
    | Mixed_rw ->
        let n_reads = clients * per_client in
        let reads = Array.map read_stmt (queries ~kind ~seed ~rows n_reads) in
        let g = Stdx.Prng.create (shuffle_seed seed) in
        Array.init clients (fun c -> mixed_list ~clients ~c ~n ~per_client ~reads ~extra ~g)
  in
  { seed; rows; dist_of; lists }

(* ---- the plaintext mirror ---- *)

let mirror rows =
  let db = Database.create () in
  let t = Database.create_table db ~name:table ~schema:Sparta.Generator.schema in
  ignore (Table.create_index t ~column:"id");
  List.iter (fun c -> ignore (Table.create_index t ~column:c)) columns;
  Array.iter (fun r -> ignore (Table.insert t r)) rows;
  db

(* The reference answer to [col = v], keyed by primary key. *)
let expected db ~column ~value =
  let r =
    Executor.run (Database.table db table) ~projection:Executor.All_columns
      (Predicate.Eq (column, Value.Text value))
  in
  let h = Hashtbl.create (max 1 (Array.length r.rows)) in
  Array.iter (fun row -> Hashtbl.replace h row.(0) row) r.rows;
  h

(* Same multiset of rows as the reference: equal counts, every row
   equal to the reference row with its key, no key twice. *)
let same_rows expected (got : Value.t array list) =
  List.length got = Hashtbl.length expected
  &&
  let seen = Hashtbl.create (Hashtbl.length expected) in
  List.for_all
    (fun row ->
      Array.length row > 0
      && (not (Hashtbl.mem seen row.(0)))
      && begin
           Hashtbl.replace seen row.(0) ();
           match Hashtbl.find_opt expected row.(0) with
           | Some want -> Array.length want = Array.length row && Array.for_all2 Value.equal want row
           | None -> false
         end)
    got

(* A mixed-rw read cannot be compared online (concurrent writes move
   its answer), but every row returned must still match its predicate. *)
let rows_match ~column ~value (got : Value.t array list) =
  let i = Schema.column_index Sparta.Generator.schema column in
  List.for_all (fun row -> Value.equal row.(i) (Value.Text value)) got
