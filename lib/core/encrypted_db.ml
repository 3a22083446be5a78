(* lint: guarded-by Table.writer (encryptor/key tables immutable on the snapshot-read path) *)
open Sqldb

let tag_column c = c ^ "_tag"
let data_column c = c ^ "_data"
let rtag_column c = c ^ "_rtag"

(* Row-level crypto counters (atomic bumps, nothing allocated per row)
   plus the per-phase latency histograms of the read path. The same
   query.* histograms are fed by the proxy's SELECT path, so one
   registry covers both entry points. *)
let m_rows_encrypted = Obs.Metrics.counter "edb.rows_encrypted_total"
let m_rows_decrypted = Obs.Metrics.counter "edb.rows_decrypted_total"
let h_rewrite = Obs.Metrics.histogram "query.rewrite_ns"
let h_exec = Obs.Metrics.histogram "query.exec_ns"
let h_decrypt = Obs.Metrics.histogram "query.decrypt_ns"
let h_filter = Obs.Metrics.histogram "query.filter_ns"

(* One query phase: latency histogram + trace span under one name. *)
let phase h name f = Obs.Metrics.time h (fun () -> Obs.Trace.with_span name f)

type t = {
  table : Table.t;
  plain_schema : Schema.t;
  key_column : string;
  kind : Scheme.kind;
  encrypted_columns : string list;
  encryptors : (string, Column_enc.t) Hashtbl.t;
  data_keys : (string, Crypto.Ctr.key) Hashtbl.t; (* non-searchable columns *)
  g : Stdx.Prng.t;
  range_indexes : (string, Range_index.t) Hashtbl.t;
  range_structs : (string, Range_struct.t) Hashtbl.t;
  (* Plain-column position -> encrypted-table position maps, built once. *)
  enc_schema : Schema.t;
  plain_to_enc :
    [ `Key of int | `Data of int | `Searchable of int * int | `Ranged of int * int ] array;
}

(* Column validation + encrypted-schema layout, shared by {!create}
   (fresh table) and {!attach} (table restored from a checkpoint).
   [ctx] only flavors error messages. *)
let enc_layout ~ctx ~plain_schema ~key_column ~encrypted_columns ~range_names =
  let key_pos =
    match Schema.column_index_opt plain_schema key_column with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "%s: unknown key column %S" ctx key_column)
  in
  (match (Schema.columns plain_schema).(key_pos).ty with
  | Value.TInt -> ()
  | _ -> invalid_arg (ctx ^ ": key column must be INT"));
  let is_searchable c = List.mem c encrypted_columns in
  List.iter
    (fun c ->
      match Schema.column_index_opt plain_schema c with
      | None -> invalid_arg (Printf.sprintf "%s: unknown column %S" ctx c)
      | Some i ->
          if (Schema.columns plain_schema).(i).ty <> Value.TText then
            invalid_arg (Printf.sprintf "%s: column %S must be TEXT" ctx c))
    encrypted_columns;
  List.iter
    (fun c ->
      match Schema.column_index_opt plain_schema c with
      | None -> invalid_arg (Printf.sprintf "%s: unknown range column %S" ctx c)
      | Some i ->
          if (Schema.columns plain_schema).(i).ty <> Value.TInt then
            invalid_arg (Printf.sprintf "%s: range column %S must be INT" ctx c);
          if is_searchable c || c = key_column then
            invalid_arg (Printf.sprintf "%s: column %S cannot be both" ctx c))
    range_names;
  (* Encrypted schema: key passthrough; every other plain column gets a
     _data blob; searchable columns additionally get a _tag int;
     range-indexed INT columns get a _rtag int (bucket tag). *)
  let plain_cols = Schema.columns plain_schema in
  let enc_cols = ref [] and mapping = Array.make (Array.length plain_cols) (`Key 0) in
  let pos = ref 0 in
  let add col =
    enc_cols := col :: !enc_cols;
    let p = !pos in
    incr pos;
    p
  in
  Array.iteri
    (fun i (col : Schema.column) ->
      if i = key_pos then
        mapping.(i) <- `Key (add { Schema.name = col.name; ty = Value.TInt; nullable = false })
      else if is_searchable col.name then begin
        let tag_pos = add { Schema.name = tag_column col.name; ty = Value.TInt; nullable = false } in
        let data_pos =
          add { Schema.name = data_column col.name; ty = Value.TBlob; nullable = false }
        in
        mapping.(i) <- `Searchable (tag_pos, data_pos)
      end
      else if List.mem col.name range_names then begin
        let rtag_pos =
          add { Schema.name = col.name ^ "_rtag"; ty = Value.TInt; nullable = false }
        in
        let data_pos =
          add { Schema.name = data_column col.name; ty = Value.TBlob; nullable = false }
        in
        mapping.(i) <- `Ranged (rtag_pos, data_pos)
      end
      else
        mapping.(i) <-
          `Data (add { Schema.name = data_column col.name; ty = Value.TBlob; nullable = false }))
    plain_cols;
  (Schema.create (List.rev !enc_cols), mapping)

let build_encryptors ~fallback ?tag_algo ~master ~kind ~dist_of encrypted_columns =
  let encryptors = Hashtbl.create (List.length encrypted_columns) in
  List.iter
    (fun c ->
      Hashtbl.replace encryptors c
        (Column_enc.create ~fallback ?tag_algo ~master ~column:c ~kind ~dist:(dist_of c) ()))
    encrypted_columns;
  encryptors

(* The ESEDS boundary trees are a pure function of (master, column,
   boundaries) — see {!Range_struct} — so both {!create} and {!attach}
   derive them from whatever range indexes they just built; no extra
   persistence beyond the checkpointed boundaries. *)
let build_range_structs ~master range_indexes =
  let structs = Hashtbl.create (Hashtbl.length range_indexes) in
  Hashtbl.iter
    (fun c ri -> Hashtbl.replace structs c (Range_struct.of_index ~master ~column:c ri))
    range_indexes;
  structs

let build_data_keys ~plain_schema ~key_column ~encrypted_columns ~master =
  let data_keys = Hashtbl.create 16 in
  Array.iter
    (fun (col : Schema.column) ->
      if col.name <> key_column && not (List.mem col.name encrypted_columns) then
        Hashtbl.replace data_keys col.name (Crypto.Keys.data_key master ~column:col.name))
    (Schema.columns plain_schema);
  data_keys

let create ?(fallback = `Reject) ?tag_algo ?(tag_index = Table_index.Btree)
    ?(range_columns = []) ?range_training ~db ~name ~plain_schema ~key_column ~encrypted_columns
    ~kind ~master ~dist_of ~seed () =
  List.iter
    (fun (_, buckets) ->
      if buckets < 1 then invalid_arg "Encrypted_db.create: range buckets must be positive")
    range_columns;
  let enc_schema, mapping =
    enc_layout ~ctx:"Encrypted_db.create" ~plain_schema ~key_column ~encrypted_columns
      ~range_names:(List.map fst range_columns)
  in
  let table = Database.create_table db ~name ~schema:enc_schema in
  ignore (Table.create_index table ~column:key_column);
  List.iter
    (fun c -> ignore (Table.create_index ~kind:tag_index table ~column:(tag_column c)))
    encrypted_columns;
  List.iter
    (fun (c, _) -> ignore (Table.create_index table ~column:(c ^ "_rtag")))
    range_columns;
  let range_indexes = Hashtbl.create (List.length range_columns) in
  List.iter
    (fun (c, buckets) ->
      let training =
        match range_training with
        | Some f -> f c
        | None ->
            invalid_arg "Encrypted_db.create: range_columns requires range_training"
      in
      Hashtbl.replace range_indexes c (Range_index.create ~master ~column:c ~buckets ~training))
    range_columns;
  {
    table;
    plain_schema;
    key_column;
    kind;
    encrypted_columns;
    encryptors = build_encryptors ~fallback ?tag_algo ~master ~kind ~dist_of encrypted_columns;
    data_keys = build_data_keys ~plain_schema ~key_column ~encrypted_columns ~master;
    g = Stdx.Prng.create seed;
    range_indexes;
    range_structs = build_range_structs ~master range_indexes;
    enc_schema;
    plain_to_enc = mapping;
  }

let attach ?(fallback = `Reject) ?tag_algo ?(range_boundaries = []) ~table ~plain_schema
    ~key_column ~encrypted_columns ~kind ~master ~dist_of ~prng () =
  let enc_schema, mapping =
    enc_layout ~ctx:"Encrypted_db.attach" ~plain_schema ~key_column ~encrypted_columns
      ~range_names:(List.map fst range_boundaries)
  in
  if Schema.columns (Table.schema table) <> Schema.columns enc_schema then
    invalid_arg
      (Printf.sprintf "Encrypted_db.attach: table %S does not match the derived encrypted schema"
         (Table.name table));
  let range_indexes = Hashtbl.create (List.length range_boundaries) in
  List.iter
    (fun (c, boundaries) ->
      Hashtbl.replace range_indexes c (Range_index.restore ~master ~column:c ~boundaries))
    range_boundaries;
  {
    table;
    plain_schema;
    key_column;
    kind;
    encrypted_columns;
    encryptors = build_encryptors ~fallback ?tag_algo ~master ~kind ~dist_of encrypted_columns;
    data_keys = build_data_keys ~plain_schema ~key_column ~encrypted_columns ~master;
    g = prng;
    range_indexes;
    range_structs = build_range_structs ~master range_indexes;
    enc_schema;
    plain_to_enc = mapping;
  }

let prng t = t.g

let table t = t.table
let kind t = t.kind
let encrypted_columns t = t.encrypted_columns
let plain_schema t = t.plain_schema
let key_column t = t.key_column

let column_encryptor t c =
  match Hashtbl.find_opt t.encryptors c with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Encrypted_db: column %S is not searchable" c)

let plain_text_of v =
  match v with
  | Value.Text s -> s
  | _ -> invalid_arg "Encrypted_db: searchable column value must be TEXT"

(* Encrypt one plaintext row into encrypted-schema order, drawing weak
   randomness (salt choice, CTR nonces) from [g]. Reads the encryptor
   caches but never writes them when every searchable value has been
   prewarmed — which makes this safe to call from worker domains, one
   PRNG per domain of work. *)
let encrypt_row t g row =
  let out = Array.make (Schema.arity t.enc_schema) Value.Null in
  let plain_cols = Schema.columns t.plain_schema in
  Array.iteri
    (fun i v ->
      match t.plain_to_enc.(i) with
      | `Key p -> out.(p) <- v
      | `Searchable (tag_pos, data_pos) ->
          let enc = Hashtbl.find t.encryptors plain_cols.(i).name in
          let tag, ct = Column_enc.encrypt enc g (plain_text_of v) in
          out.(tag_pos) <- Value.Int tag;
          out.(data_pos) <- Value.Blob ct
      | `Ranged (rtag_pos, data_pos) ->
          let ri = Hashtbl.find t.range_indexes plain_cols.(i).name in
          let key = Hashtbl.find t.data_keys plain_cols.(i).name in
          let raw =
            match v with
            | Value.Int x -> x
            | v ->
                invalid_arg
                  ("Encrypted_db.insert: range-indexed column must be INT, got "
                  ^ Value.to_string v)
          in
          out.(rtag_pos) <- Value.Int (Range_index.tag_of_value ri raw);
          out.(data_pos) <- Value.Blob (Crypto.Ctr.encrypt_random key g (Value_codec.encode v))
      | `Data p ->
          let key = Hashtbl.find t.data_keys plain_cols.(i).name in
          out.(p) <- Value.Blob (Crypto.Ctr.encrypt_random key g (Value_codec.encode v)))
    row;
  Obs.Metrics.incr m_rows_encrypted;
  out

let encrypt_plain_row t row =
  (match Schema.validate_row t.plain_schema row with
  | Ok () -> ()
  | Error e -> invalid_arg ("Encrypted_db.insert: " ^ e));
  encrypt_row t t.g row

let insert t row = Table.insert t.table (encrypt_plain_row t row)

let default_chunk_size = 1024

let insert_batch ?pool ?(chunk_size = default_chunk_size) t rows =
  if chunk_size <= 0 then invalid_arg "Encrypted_db.insert_batch: chunk_size must be positive";
  Array.iteri
    (fun i row ->
      match Schema.validate_row t.plain_schema row with
      | Ok () -> ()
      | Error e -> invalid_arg (Printf.sprintf "Encrypted_db.insert_batch: row %d: %s" i e))
    rows;
  (* Pre-warm every searchable column's salt cache with the batch's
     distinct plaintexts, on this domain: salt-set computation (DRBG
     streams, alias tables) runs once per distinct value instead of
     racing per row, and the parallel phase below becomes read-only on
     the encryptors. One pass over the batch collects all columns'
     distinct sets at once — per-column passes re-walk a 10M-row batch
     once per searchable column. *)
  let warm =
    List.map
      (fun c ->
        ( Schema.column_index t.plain_schema c,
          Hashtbl.create 256,
          Hashtbl.find t.encryptors c ))
      t.encrypted_columns
  in
  Array.iter
    (fun row ->
      List.iter
        (fun (pos, distinct, _) ->
          let m = plain_text_of row.(pos) in
          if not (Hashtbl.mem distinct m) then Hashtbl.replace distinct m ())
        warm)
    rows;
  List.iter
    (fun (_, distinct, enc) ->
      Column_enc.prewarm enc (Hashtbl.fold (fun m () acc -> m :: acc) distinct []))
    warm;
  let n = Array.length rows in
  let encrypted =
    match pool with
    | None -> Array.map (fun row -> encrypt_row t t.g row) rows
    | Some pool when Stdx.Task_pool.domains pool <= 1 || n = 0 ->
        (* Single-domain path: draw from the database PRNG row by row,
           in order — byte-identical to sequential {!insert}. *)
        Array.map (fun row -> encrypt_row t t.g row) rows
    | Some pool ->
        (* Multi-domain path: one PRNG per chunk, split off the
           database PRNG in chunk order. The output depends only on
           the PRNG state and the chunk size — not on the domain
           count or scheduling — so a load is reproducible for a
           fixed (seed, chunk_size). *)
        let n_chunks = (n + chunk_size - 1) / chunk_size in
        let gs = Array.init n_chunks (fun _ -> Stdx.Prng.split t.g) in
        let chunks =
          Stdx.Task_pool.parallel_init pool n_chunks (fun ci ->
              let g = gs.(ci) in
              let lo = ci * chunk_size in
              let len = min chunk_size (n - lo) in
              Array.init len (fun j -> encrypt_row t g rows.(lo + j)))
        in
        Array.concat (Array.to_list chunks)
  in
  Table.insert_batch t.table encrypted

let encrypted_schema t = t.enc_schema

let insert_encrypted t row = Table.insert t.table row

let delete_row t id = Table.delete t.table id

let tags_for t ~column m = Column_enc.search_tags (column_encryptor t column) m

(* The column's profiled plaintext support, in the distribution's
   canonical (descending-probability) order — what the join rewrite
   enumerates to build per-plaintext tag buckets. *)
let support t ~column = Dist.Empirical.support (Column_enc.dist (column_encryptor t column))

let search_predicate t ~column m =
  let tags = tags_for t ~column m in
  Predicate.In (tag_column column, List.map (fun tag -> Value.Int tag) tags)

let freeze t = Table.freeze t.table

let range_index t column =
  match Hashtbl.find_opt t.range_indexes column with
  | Some ri -> ri
  | None -> invalid_arg (Printf.sprintf "Encrypted_db: column %S is not range-indexed" column)

let range_columns t = Hashtbl.fold (fun c _ acc -> c :: acc) t.range_indexes []

let range_predicate t ~column ~lo ~hi =
  let tags = Range_index.tags_for_range (range_index t column) ~lo ~hi in
  Predicate.In (rtag_column column, List.map (fun tag -> Value.Int tag) tags)

let range_struct t column =
  match Hashtbl.find_opt t.range_structs column with
  | Some rs -> rs
  | None -> invalid_arg (Printf.sprintf "Encrypted_db: column %S is not range-indexed" column)

let range_tree t column = Range_struct.tree (range_struct t column)
let range_cover t ~column ~lo ~hi = Range_struct.cover (range_struct t column) ~lo ~hi

let decrypt_row t enc_row =
  let plain_cols = Schema.columns t.plain_schema in
  Array.mapi
    (fun i (col : Schema.column) ->
      match t.plain_to_enc.(i) with
      | `Key p -> enc_row.(p)
      | `Searchable (_, data_pos) -> begin
          let enc = Hashtbl.find t.encryptors col.name in
          match enc_row.(data_pos) with
          | Value.Blob ct -> Value.Text (Column_enc.decrypt enc ct)
          | v -> invalid_arg ("Encrypted_db.decrypt_row: expected blob, got " ^ Value.to_string v)
        end
      | `Data p | `Ranged (_, p) -> begin
          let key = Hashtbl.find t.data_keys col.name in
          match enc_row.(p) with
          | Value.Blob ct -> Value_codec.decode_exn (Crypto.Ctr.decrypt key ct)
          | v -> invalid_arg ("Encrypted_db.decrypt_row: expected blob, got " ^ Value.to_string v)
        end)
    plain_cols

let decrypt_row t enc_row =
  let row = decrypt_row t enc_row in
  Obs.Metrics.incr m_rows_decrypted;
  row

(* Timings of the client-side back half, for callers that run their
   own decrypt pass (the join's memoized verify). *)
let observe_decrypt_filter ~decrypt_ns ~filter_ns =
  Obs.Metrics.observe h_decrypt decrypt_ns;
  Obs.Metrics.observe h_filter filter_ns

(* The one client-side back half of every SELECT shape: decrypt the
   server's rows in order, keep those passing [keep] (the bucketized
   false-positive check, the true range, or the proxy's residual
   predicate), stop after [limit] survivors. Rows are decrypted in
   chunks — one row at a time without a multi-domain pool, so a LIMIT n
   query never decrypts past the row that completes it; 256 rows fanned
   across a multi-domain pool, which over-decrypts at most one chunk.
   Chunks are index-ordered, so survivors (rows, order, stopping point)
   do not depend on the pool. Decryption and filtering interleave, so
   the two phases are accounted by summed clock deltas and recorded as
   pre-measured trace spans. *)
let decrypt_filter_limit ?pool t ~keep ?limit (exec : Executor.result) =
  let start_ns = Stdx.Clock.now_ns () in
  let wanted = match limit with None -> max_int | Some n -> n in
  let chunk =
    match pool with Some p when Stdx.Task_pool.domains p > 1 -> 256 | Some _ | None -> 1
  in
  let n = Array.length exec.rows in
  let kept = ref [] and n_kept = ref 0 and i = ref 0 in
  let decrypt_ns = ref 0.0 and filter_ns = ref 0.0 in
  while !i < n && !n_kept < wanted do
    let lo = !i in
    let len = min chunk (n - lo) in
    let t0 = Stdx.Clock.now_ns () in
    let plains = Stdx.Task_pool.map_array ?pool (Array.sub exec.rows lo len) (decrypt_row t) in
    let t1 = Stdx.Clock.now_ns () in
    decrypt_ns := !decrypt_ns +. (t1 -. t0);
    let j = ref 0 in
    while !j < len && !n_kept < wanted do
      if keep plains.(!j) then begin
        kept := (exec.row_ids.(lo + !j), plains.(!j)) :: !kept;
        incr n_kept
      end;
      incr j
    done;
    filter_ns := !filter_ns +. (Stdx.Clock.now_ns () -. t1);
    i := lo + len
  done;
  observe_decrypt_filter ~decrypt_ns:!decrypt_ns ~filter_ns:!filter_ns;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.add ~name:"query.decrypt"
      ~attrs:[ ("rows_decrypted", string_of_int !i) ]
      ~start_ns ~dur_ns:!decrypt_ns ();
    Obs.Trace.add ~name:"query.filter"
      ~attrs:[ ("kept", string_of_int !n_kept) ]
      ~start_ns:(start_ns +. !decrypt_ns) ~dur_ns:!filter_ns ()
  end;
  List.rev !kept

(* Server half of an equality search: the rewritten tag IN-list
   against [view], or a view frozen now (probes fanned over [pool]). *)
let exec_search ?pool ?view t ~projection ~column m =
  let pred = phase h_rewrite "query.rewrite" (fun () -> search_predicate t ~column m) in
  phase h_exec "query.exec" (fun () ->
      let view = match view with Some v -> v | None -> freeze t in
      Executor.run_view ?pool view ~projection pred)

let search_ids ?pool ?view t ~column m =
  Obs.Trace.with_span "edb.search_ids" @@ fun () ->
  exec_search ?pool ?view t ~projection:Executor.Row_ids ~column m

let search_rows ?pool ?view t ~column m =
  Obs.Trace.with_span "edb.search_rows" @@ fun () ->
  let result = exec_search ?pool ?view t ~projection:Executor.All_columns ~column m in
  let col_pos = Schema.column_index t.plain_schema column in
  let keep =
    if Scheme.is_bucketized t.kind then
      (* Client-side false-positive filter (paper §V-C1). Compares a
         decrypted plaintext against the query value, so it runs
         constant-time like every other match on secret data. *)
      fun row -> match row.(col_pos) with Value.Text s -> Stdx.Bytes_util.ct_equal s m | _ -> false
    else fun _ -> true
  in
  (List.map snd (decrypt_filter_limit ?pool t ~keep result), result)

(* Keep predicate of a range search: the decrypted value lies inside
   the inclusive range (edge-bucket false positives drop out). *)
let in_range t ~column ~lo ~hi =
  let bound = Option.map (fun x -> Value.Int x) in
  Predicate.compile t.plain_schema (Predicate.Range (column, bound lo, bound hi))

(* Range search over a bucketized INT column: server returns every row
   in the overlapping buckets; the client decrypts and keeps the rows
   actually inside the range. *)
let search_range t ~column ~lo ~hi =
  Obs.Trace.with_span "edb.search_range" @@ fun () ->
  let pred = phase h_rewrite "query.rewrite" (fun () -> range_predicate t ~column ~lo ~hi) in
  let result =
    phase h_exec "query.exec" (fun () ->
        Executor.run t.table ~projection:Executor.All_columns pred)
  in
  (List.map snd (decrypt_filter_limit t ~keep:(in_range t ~column ~lo ~hi) result), result)

(* Same query through the ESEDS plan: ship the O(log B) canonical-cover
   roots, let the server expand them over the boundary tree (DESIGN.md
   §5k). The server predicate passed for the candidate re-check is the
   flat rtag IN-list — traversal leaves equal the flat tags by
   construction, so both plans return byte-identical results. *)
let search_range_traverse ?pool t ~view ~column ~lo ~hi =
  Obs.Trace.with_span "edb.search_range_traverse" @@ fun () ->
  let rs = range_struct t column in
  let cover, pred =
    phase h_rewrite "query.rewrite" (fun () ->
        (Range_struct.cover rs ~lo ~hi, range_predicate t ~column ~lo ~hi))
  in
  let result =
    phase h_exec "query.exec" (fun () ->
        Executor.run_traverse ?pool view ~tree:(Range_struct.tree rs)
          ~tag_column:(rtag_column column) ~roots:cover.Range_struct.roots
          ~projection:Executor.All_columns pred)
  in
  (List.map snd (decrypt_filter_limit ?pool t ~keep:(in_range t ~column ~lo ~hi) result), result)
