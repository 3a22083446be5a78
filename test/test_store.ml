(* Durable-storage-engine tests: CRC and codec roundtrips, WAL framing
   and torn-tail handling, checkpoint/recovery equivalence for plain
   and encrypted tables, and the fault-injection matrix — crash the
   write path at byte and sync boundaries, reopen, and require exactly
   the committed prefix back, with the weak-randomness stream resumed
   so post-recovery tags are byte-identical to a process that never
   died. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- scratch directories ---------------- *)

let temp_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wre_store_test.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ---------------- fixtures ---------------- *)

let plain_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = Sqldb.Value.TInt; nullable = false };
      { name = "name"; ty = Sqldb.Value.TText; nullable = false };
    ]

let names = [| "alice"; "bob"; "carol"; "dave" |]

let dist = Dist.Empirical.of_counts [ ("alice", 4); ("bob", 3); ("carol", 2); ("dave", 1) ]

let op_row i =
  [| Sqldb.Value.Int (Int64.of_int i); Sqldb.Value.Text names.(i mod Array.length names) |]

let master () = Crypto.Keys.generate (Stdx.Prng.create 99L)

let kind = Wre.Scheme.Poisson 20.0

(* Fresh store directory holding one empty encrypted table "t",
   checkpointed so the WAL starts empty. Deterministic: every call
   produces byte-identical state. *)
let setup_base dir =
  let store = Store.Engine.open_dir ~dir () in
  let edb =
    Store.Engine.create_encrypted store ~name:"t" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name" ] ~kind ~master:(master ()) ~dist_of:(fun _ -> dist) ~seed:5L
      ()
  in
  ignore edb;
  Store.Engine.checkpoint store;
  Store.Engine.close store

(* In-memory replica of [setup_base] + all [n] workload ops: the state
   a process that never crashed would hold. *)
let reference_state n =
  let db = Sqldb.Database.create () in
  let edb =
    Wre.Encrypted_db.create ~db ~name:"t" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name" ] ~kind ~master:(master ()) ~dist_of:(fun _ -> dist) ~seed:5L
      ()
  in
  for i = 0 to n - 1 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  ( Sqldb.Table.snapshot (Wre.Encrypted_db.table edb),
    (Wre.Encrypted_db.search_ids edb ~column:"name" "alice").Sqldb.Executor.row_ids )

(* ---------------- crc32 ---------------- *)

let test_crc32_vector () =
  (* The standard IEEE 802.3 check value. *)
  check_bool "check vector" true (Store.Crc32.digest "123456789" = 0xCBF43926l);
  check_bool "empty" true (Store.Crc32.digest "" = 0l)

let test_crc32_incremental () =
  let whole = Store.Crc32.digest "header-payload" in
  let inc = Store.Crc32.update (Store.Crc32.digest "header-") "payload" in
  check_bool "incremental = whole" true (whole = inc)

(* ---------------- codec ---------------- *)

let test_codec_scalars () =
  let b = Buffer.create 64 in
  Store.Codec.put_u8 b 200;
  Store.Codec.put_u32 b 0xFFFFFFFF;
  Store.Codec.put_u64 b (-1L);
  Store.Codec.put_bool b true;
  Store.Codec.put_float b 3.25;
  Store.Codec.put_str b "hé\x00llo";
  let c = Store.Codec.cursor (Buffer.contents b) in
  check_int "u8" 200 (Store.Codec.get_u8 c);
  check_int "u32" 0xFFFFFFFF (Store.Codec.get_u32 c);
  check_bool "u64" true (Store.Codec.get_u64 c = -1L);
  check_bool "bool" true (Store.Codec.get_bool c);
  check_bool "float" true (Store.Codec.get_float c = 3.25);
  Alcotest.(check string) "str" "hé\x00llo" (Store.Codec.get_str c);
  check_bool "at end" true (Store.Codec.at_end c)

let test_codec_truncation_rejected () =
  let b = Buffer.create 16 in
  Store.Codec.put_str b "hello";
  let s = Buffer.contents b in
  let torn = String.sub s 0 (String.length s - 2) in
  check_bool "torn string rejected" true
    (match Store.Codec.get_str (Store.Codec.cursor torn) with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

let qcheck_codec_value_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          return Sqldb.Value.Null;
          map (fun i -> Sqldb.Value.Int (Int64.of_int i)) int;
          map (fun f -> Sqldb.Value.Real f) (float_bound_inclusive 1e9);
          map (fun s -> Sqldb.Value.Text s) (string_size (0 -- 20));
          map (fun s -> Sqldb.Value.Blob s) (string_size (0 -- 20));
        ])
  in
  QCheck.Test.make ~name:"codec row roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 8) value_gen))
    (fun vs ->
      let row = Array.of_list vs in
      let b = Buffer.create 64 in
      Store.Codec.put_row b row;
      let c = Store.Codec.cursor (Buffer.contents b) in
      let back = Store.Codec.get_row c in
      back = row && Store.Codec.at_end c)

let test_codec_table_snapshot_roundtrip () =
  let pager = Sqldb.Pager.create () in
  let t = Sqldb.Table.create pager ~name:"t" ~schema:plain_schema in
  for i = 0 to 9 do
    ignore (Sqldb.Table.insert t (op_row i))
  done;
  ignore (Sqldb.Table.create_index t ~column:"name");
  ignore (Sqldb.Table.delete t 3);
  Sqldb.Table.vacuum t;
  let snap = Sqldb.Table.snapshot t in
  let b = Buffer.create 256 in
  Store.Codec.put_table_snapshot b snap;
  let back = Store.Codec.get_table_snapshot (Store.Codec.cursor (Buffer.contents b)) in
  check_bool "snapshot roundtrip" true (back = snap)

(* A body whose column count disagrees with its schema is rejected at
   decode, not left to fail at the first row access. *)
let test_codec_snapshot_arity_checked () =
  let t = Sqldb.Table.create (Sqldb.Pager.create ()) ~name:"t" ~schema:plain_schema in
  ignore (Sqldb.Table.insert t (op_row 0));
  let snap = Sqldb.Table.snapshot t in
  let b = Buffer.create 64 in
  Store.Codec.put_table_snapshot b { snap with s_cols = [| snap.s_cols.(0) |] };
  check_bool "column count mismatch rejected" true
    (match Store.Codec.get_table_snapshot (Store.Codec.cursor (Buffer.contents b)) with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

let test_record_roundtrip () =
  let ops =
    [
      Store.Record.Create_table { name = "t"; schema = plain_schema };
      Store.Record.Create_index { table = "t"; column = "name"; kind = Sqldb.Table_index.Hash };
      Store.Record.Insert { table = "t"; row = op_row 0; prng = Some (String.make 32 'x') };
      Store.Record.Insert_batch
        { table = "t"; rows = [| op_row 1; op_row 2 |]; prng = None };
      Store.Record.Delete { table = "t"; id = 7 };
      Store.Record.Vacuum { table = "t" };
    ]
  in
  List.iter
    (fun op -> check_bool "op roundtrip" true (Store.Record.decode (Store.Record.encode op) = op))
    ops;
  check_bool "trailing bytes rejected" true
    (match Store.Record.decode (Store.Record.encode (List.hd ops) ^ "x") with
    | exception Store.Codec.Corrupt _ -> true
    | _ -> false)

(* ---------------- WAL framing ---------------- *)

let wal_roundtrip_payloads dir payloads =
  let path = Filename.concat dir "wal.bin" in
  let wal = Store.Wal.create ~path ~group_commit:1 ~next_lsn:1L in
  List.iter (fun p -> ignore (Store.Wal.append wal p)) payloads;
  Store.Wal.close wal;
  path

let test_wal_roundtrip () =
  with_temp_dir (fun dir ->
      let path = wal_roundtrip_payloads dir [ "alpha"; ""; "gamma-delta" ] in
      let got = ref [] in
      let max_lsn, valid_len = Store.Wal.replay ~path (fun lsn p -> got := (lsn, p) :: !got) in
      check_bool "payloads back in order" true
        (List.rev !got = [ (1L, "alpha"); (2L, ""); (3L, "gamma-delta") ]);
      check_bool "max lsn" true (max_lsn = 3L);
      let stat = Unix.stat path in
      check_int "valid prefix is whole file" stat.Unix.st_size valid_len)

let test_wal_torn_tail () =
  with_temp_dir (fun dir ->
      let path = wal_roundtrip_payloads dir [ "alpha"; "beta"; "gamma" ] in
      (* Tear bytes off the last frame: replay must stop cleanly after
         the second record, reporting where the valid prefix ends. *)
      let full = (Unix.stat path).Unix.st_size in
      let f = Store.Io.open_append path in
      Store.Io.truncate f (full - 3);
      Store.Io.close f;
      let got = ref [] in
      let max_lsn, valid_len = Store.Wal.replay ~path (fun _ p -> got := p :: !got) in
      check_bool "two intact records" true (List.rev !got = [ "alpha"; "beta" ]);
      check_bool "lsn of last intact" true (max_lsn = 2L);
      check_bool "valid prefix excludes torn frame" true (valid_len < full - 3))

let test_wal_corrupt_tail () =
  with_temp_dir (fun dir ->
      let path = wal_roundtrip_payloads dir [ "alpha"; "beta" ] in
      (* Flip a byte inside the last frame's payload: CRC must reject
         it and treat the frame as end-of-log. *)
      let content = Option.get (Store.Io.read_file path) in
      let b = Bytes.of_string content in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xFF));
      let f = Store.Io.open_trunc path in
      Store.Io.write f (Bytes.to_string b);
      Store.Io.close f;
      let got = ref [] in
      let _, _ = Store.Wal.replay ~path (fun _ p -> got := p :: !got) in
      check_bool "corrupt frame dropped" true (List.rev !got = [ "alpha" ]))

let test_wal_group_commit_knob () =
  with_temp_dir (fun dir ->
      let fsyncs group =
        let path = Filename.concat dir (Printf.sprintf "gc%d.bin" group) in
        let wal = Store.Wal.create ~path ~group_commit:group ~next_lsn:1L in
        Store.Failpoints.arm_counting ();
        for _ = 1 to 6 do
          ignore (Store.Wal.append wal "payload")
        done;
        let n =
          Option.value ~default:0 (List.assoc_opt "wal.fsync" (Store.Failpoints.counted_events ()))
        in
        Store.Failpoints.disarm ();
        Store.Wal.close wal;
        n
      in
      check_int "group_commit=1 syncs every record" 6 (fsyncs 1);
      check_int "group_commit=3 syncs every third" 2 (fsyncs 3))

(* ---------------- plain-table persistence ---------------- *)

let test_plain_table_roundtrip () =
  with_temp_dir (fun dir ->
      let build_ops db =
        let t = Sqldb.Database.create_table db ~name:"p" ~schema:plain_schema in
        ignore (Sqldb.Table.create_index t ~column:"name");
        for i = 0 to 9 do
          ignore (Sqldb.Table.insert t (op_row i))
        done;
        ignore (Sqldb.Table.delete t 2);
        ignore (Sqldb.Table.delete t 5);
        t
      in
      let store = Store.Engine.open_dir ~dir () in
      ignore (build_ops (Store.Engine.db store));
      Store.Engine.close store;
      let replica = Sqldb.Database.create () in
      let expected = Sqldb.Table.snapshot (build_ops replica) in
      let store = Store.Engine.open_dir ~dir () in
      let r = Store.Engine.recovery store in
      check_bool "no snapshot yet" false r.Store.Engine.snapshot_loaded;
      check_int "all records replayed" 14 r.Store.Engine.replayed;
      let t = Sqldb.Database.table (Store.Engine.db store) "p" in
      check_bool "physical state identical" true (Sqldb.Table.snapshot t = expected);
      check_bool "index survives" true (Sqldb.Table.index_on t ~column:"name" <> None);
      Store.Engine.close store)

(* ---------------- encrypted persistence + tag continuity ---------------- *)

let test_encrypted_roundtrip_continues_stream () =
  with_temp_dir (fun dir ->
      let n_before = 12 and n_total = 20 in
      let ref_snap, ref_ids = reference_state n_total in
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to n_before - 1 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Engine.close store;
      (* Reopen and continue: rows encrypted after recovery must carry
         the same tags/ciphertexts the uncrashed reference produced,
         i.e. the PRNG stream resumed exactly. *)
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = n_before to n_total - 1 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      let t = Wre.Encrypted_db.table edb in
      check_bool "byte-identical to uncrashed reference" true
        (Sqldb.Table.snapshot t = ref_snap);
      check_bool "search agrees" true
        ((Wre.Encrypted_db.search_ids edb ~column:"name" "alice").Sqldb.Executor.row_ids = ref_ids);
      Store.Engine.close store)

let test_checkpoint_replays_only_tail () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to 19 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Engine.checkpoint store;
      for i = 20 to 24 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Engine.close store;
      let store = Store.Engine.open_dir ~dir () in
      let r = Store.Engine.recovery store in
      check_bool "snapshot loaded" true r.Store.Engine.snapshot_loaded;
      check_int "only the tail replayed" 5 r.Store.Engine.replayed;
      let t = Wre.Encrypted_db.table (Option.get (Store.Engine.encrypted store "t")) in
      check_int "all rows back" 25 (Sqldb.Table.row_count t);
      Store.Engine.close store)

(* ---------------- vacuum + checkpoint (no resurrection) ---------------- *)

let test_vacuum_checkpoint_shrinks_no_resurrection () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to 29 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      let t = Wre.Encrypted_db.table edb in
      for id = 0 to 19 do
        ignore (Sqldb.Table.delete t id)
      done;
      Store.Engine.checkpoint store;
      let size_before =
        String.length (Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)))
      in
      Sqldb.Table.vacuum t;
      Store.Engine.checkpoint store;
      let size_after =
        String.length (Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)))
      in
      check_bool "snapshot shrinks after vacuum" true (size_after < size_before);
      Store.Engine.close store;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      let t = Wre.Encrypted_db.table edb in
      check_int "live rows" 10 (Sqldb.Table.live_count t);
      check_int "row ids stable" 30 (Sqldb.Table.row_count t);
      for id = 0 to 19 do
        check_bool "tombstone stays dead" false (Sqldb.Table.is_live t id)
      done;
      (* No resurrection through the index either: every id a search
         returns must be a live post-vacuum row. *)
      let ids = (Wre.Encrypted_db.search_ids edb ~column:"name" "alice").Sqldb.Executor.row_ids in
      Array.iter
        (fun id ->
          check_bool "search hits only live rows" true (id >= 20 && Sqldb.Table.is_live t id))
        ids;
      Store.Engine.close store)

(* ---------------- snapshot publication ---------------- *)

let test_snapshot_tmp_ignored () =
  with_temp_dir (fun dir ->
      setup_base dir;
      (* A leftover .tmp from a crashed checkpoint must not confuse
         recovery. *)
      let f = Store.Io.open_trunc (Store.Snapshot.path ~dir ^ ".tmp") in
      Store.Io.write f "garbage that is not a snapshot";
      Store.Io.close f;
      let store = Store.Engine.open_dir ~dir () in
      check_bool "published snapshot loads" true
        (Store.Engine.recovery store).Store.Engine.snapshot_loaded;
      check_bool "table present" true (Store.Engine.encrypted store "t" <> None);
      Store.Engine.close store)

let test_corrupt_snapshot_rejected () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let path = Store.Snapshot.path ~dir in
      let content = Option.get (Store.Io.read_file path) in
      let b = Bytes.of_string content in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x01));
      let f = Store.Io.open_trunc path in
      Store.Io.write f (Bytes.to_string b);
      Store.Io.close f;
      check_bool "published-but-corrupt snapshot is a hard error" true
        (match Store.Engine.open_dir ~dir () with
        | exception Store.Snapshot.Corrupt_snapshot _ -> true
        | _ -> false))

(* The streaming checkpoint writer must be byte-for-byte the same
   format as serializing the materialized snapshot record — stream two
   churned tables both ways and compare files and decoded state. *)
let test_snapshot_stream_equals_record () =
  with_temp_dir (fun dir ->
      let pager = Sqldb.Pager.create () in
      let t1 = Sqldb.Table.create pager ~name:"t1" ~schema:plain_schema in
      for i = 0 to 499 do
        ignore (Sqldb.Table.insert t1 (op_row i))
      done;
      ignore (Sqldb.Table.create_index t1 ~column:"name");
      for i = 0 to 99 do
        ignore (Sqldb.Table.delete t1 (i * 3))
      done;
      Sqldb.Table.vacuum t1;
      for i = 500 to 599 do
        ignore (Sqldb.Table.insert t1 (op_row i))
      done;
      ignore (Sqldb.Table.delete t1 550);
      let t2 = Sqldb.Table.create pager ~name:"t2" ~schema:plain_schema in
      (* empty-table edge *)
      let views = [ Sqldb.Table.freeze t1; Sqldb.Table.freeze t2 ] in
      let last_lsn = 42L and pager_cfg = Sqldb.Pager.config pager in
      Store.Snapshot.write_views ~dir ~last_lsn ~pager:pager_cfg ~views ~wre:[];
      let streamed = Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)) in
      let tables = List.map Sqldb.Table.snapshot_of_view views in
      Store.Snapshot.write ~dir { Store.Snapshot.last_lsn; pager = pager_cfg; tables; wre = [] };
      let recorded = Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)) in
      check_bool "identical bytes" true (String.equal streamed recorded);
      let loaded = Option.get (Store.Snapshot.load ~dir) in
      check_bool "decodes to the frozen state" true (loaded.Store.Snapshot.tables = tables);
      check_bool "lsn preserved" true (loaded.Store.Snapshot.last_lsn = last_lsn))

(* ---------------- WRESNAP2 compatibility ---------------- *)

(* corpus/wresnap2-snapshot.bin is the snapshot.bin of a store written
   in the older WRESNAP2 format (dictionary-encoded columns): a fresh
   Store.Engine directory, [legacy_ops] on its database, then
   Store.Engine.checkpoint and close. The checkpoint left the WAL
   empty, so the snapshot alone is the whole store. It exercises 1- and
   2-byte dictionary ids, NULL cells, an UPDATE, vacuum-reclaimed
   slots, and dead-but-unvacuumed rows with live index entries. *)
let legacy_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = Sqldb.Value.TInt; nullable = false };
      { name = "name"; ty = Sqldb.Value.TText; nullable = false };
      { name = "note"; ty = Sqldb.Value.TBlob; nullable = true };
    ]

let legacy_names = [| "alice"; "bob"; "carol"; "dave"; "erin" |]

let legacy_row i =
  [|
    Sqldb.Value.Int (Int64.of_int i);
    Sqldb.Value.Text legacy_names.(i mod Array.length legacy_names);
    (if i mod 11 = 0 then Sqldb.Value.Null else Sqldb.Value.Blob (Printf.sprintf "note-%04d" i));
  |]

let legacy_ops db =
  let t = Sqldb.Database.create_table db ~name:"legacy" ~schema:legacy_schema in
  ignore (Sqldb.Table.create_index t ~column:"name");
  ignore (Sqldb.Table.create_index ~kind:Sqldb.Table_index.Hash t ~column:"id");
  ignore (Sqldb.Table.insert_batch t (Array.init 1200 legacy_row));
  (match Sqldb.Sql.execute db "UPDATE legacy SET name = 'zed' WHERE name = 'erin'" with
  | Ok _ -> ()
  | Error e -> failwith e);
  for i = 0 to 1199 do
    if i mod 7 = 3 then ignore (Sqldb.Table.delete t i)
  done;
  Sqldb.Table.vacuum t;
  for i = 0 to 59 do
    ignore (Sqldb.Table.insert t (legacy_row (2000 + i)))
  done;
  ignore (Sqldb.Table.delete t 5);
  ignore (Sqldb.Table.delete t 6);
  t

(* The heap page of every slot as the file's writer laid them out:
   page [p] starts at slot [legacy_page_starts.(p)]. Tuple sizes have
   changed since, so a replay cannot reproduce these. *)
let legacy_page_starts = [| 0; 595; 1190 |]

let legacy_page id =
  let p = ref 0 in
  Array.iteri (fun i start -> if id >= start then p := i) legacy_page_starts;
  !p

let index_answers t ~column v =
  match Sqldb.Table.index_on t ~column with
  | Some idx -> List.sort compare (Array.to_list (Sqldb.Table_index.lookup idx v))
  | None -> Alcotest.failf "no index on %s" column

let test_wresnap2_fixture_opens () =
  with_temp_dir (fun dir ->
      let fixture = Option.get (Store.Io.read_file "corpus/wresnap2-snapshot.bin") in
      check_bool "fixture is WRESNAP2" true (String.sub fixture 0 8 = "WRESNAP2");
      let f = Store.Io.open_trunc (Store.Snapshot.path ~dir) in
      Store.Io.write f fixture;
      Store.Io.close f;
      let store = Store.Engine.open_dir ~dir () in
      check_bool "snapshot loaded" true (Store.Engine.recovery store).Store.Engine.snapshot_loaded;
      let t = Sqldb.Database.table (Store.Engine.db store) "legacy" in
      let expected = legacy_ops (Sqldb.Database.create ()) in
      let n = Sqldb.Table.row_count expected in
      check_int "row ids" n (Sqldb.Table.row_count t);
      check_int "live rows" (Sqldb.Table.live_count expected) (Sqldb.Table.live_count t);
      for id = 0 to n - 1 do
        let what = Printf.sprintf "slot %d" id in
        check_bool (what ^ " liveness") (Sqldb.Table.is_live expected id) (Sqldb.Table.is_live t id);
        (* Reclaimed slots read [||] on both sides. *)
        check_bool (what ^ " row") true (Sqldb.Table.peek_row t id = Sqldb.Table.peek_row expected id);
        check_int (what ^ " page") (legacy_page id) (Sqldb.Table.row_page t id)
      done;
      let lookups =
        List.map (fun s -> ("name", Sqldb.Value.Text s)) ("zed" :: Array.to_list legacy_names)
        @ List.init 30 (fun k -> ("id", Sqldb.Value.Int (Int64.of_int (k * 71))))
        @ [ ("id", Sqldb.Value.Int 5L); ("id", Sqldb.Value.Int 2059L) ]
      in
      List.iter
        (fun (column, v) ->
          check_bool
            (Printf.sprintf "lookup %s = %s" column (Sqldb.Value.to_string v))
            true
            (index_answers t ~column v = index_answers expected ~column v))
        lookups;
      (* A new checkpoint writes the current format and reopens to the
         same physical state. *)
      let before = Sqldb.Table.snapshot t in
      Store.Engine.checkpoint store;
      Store.Engine.close store;
      let written = Option.get (Store.Io.read_file (Store.Snapshot.path ~dir)) in
      check_bool "checkpoint writes WRESNAP3" true (String.sub written 0 8 = "WRESNAP3");
      let store = Store.Engine.open_dir ~dir () in
      let t = Sqldb.Database.table (Store.Engine.db store) "legacy" in
      check_bool "WRESNAP3 reopens identically" true (Sqldb.Table.snapshot t = before);
      Store.Engine.close store)

let test_atomic_write_text_crash_safe () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "report.json" in
      Store.Io.atomic_write_text ~path "old";
      Store.Failpoints.arm_at_event "atomic.rename" ~n:1;
      check_bool "crash fires" true
        (match Store.Io.atomic_write_text ~path "new" with
        | exception Store.Failpoints.Crash _ -> true
        | () -> false);
      Store.Failpoints.disarm ();
      Alcotest.(check (option string)) "old content intact" (Some "old")
        (Store.Io.read_file path);
      Store.Io.atomic_write_text ~path "new2";
      Alcotest.(check (option string)) "publish works after crash" (Some "new2")
        (Store.Io.read_file path))

(* ---------------- fault-injection matrix ---------------- *)

let n_ops = 8

(* Run the insert workload against a base store with a failpoint armed
   by [arm]. Returns how many inserts were acknowledged (returned
   normally) before the simulated crash. *)
let run_crash_trial ~arm dir =
  setup_base dir;
  let store = Store.Engine.open_dir ~dir () in
  let edb = Option.get (Store.Engine.encrypted store "t") in
  let completed = ref 0 in
  let crashed = ref false in
  arm ();
  (try
     for i = 0 to n_ops - 1 do
       ignore (Wre.Encrypted_db.insert edb (op_row i));
       incr completed
     done;
     Store.Engine.close store
   with Store.Failpoints.Crash _ -> crashed := true);
  Store.Failpoints.disarm ();
  (!completed, !crashed)

(* The recovery invariant: reopening yields exactly a committed prefix
   — at least every acknowledged op (group_commit = 1 means each was
   fsynced before returning), at most one more (an op whose frame fully
   landed but which never returned). Completing the remaining ops must
   then produce a state byte-identical to the uncrashed reference. *)
let verify_recovery ~label ~completed dir (ref_snap, ref_ids) =
  let store = Store.Engine.open_dir ~dir () in
  let edb = Option.get (Store.Engine.encrypted store "t") in
  let t = Wre.Encrypted_db.table edb in
  let j = Sqldb.Table.row_count t in
  check_bool (label ^ ": at least every acked op") true (j >= completed);
  check_bool (label ^ ": at most one unacked op") true (j <= completed + 1);
  for i = j to n_ops - 1 do
    ignore (Wre.Encrypted_db.insert edb (op_row i))
  done;
  check_bool (label ^ ": final state = uncrashed reference") true
    (Sqldb.Table.snapshot t = ref_snap);
  check_bool (label ^ ": search tags agree") true
    ((Wre.Encrypted_db.search_ids edb ~column:"name" "alice").Sqldb.Executor.row_ids = ref_ids);
  Store.Engine.close store

(* Enumerate the crash matrix for the workload: total bytes written and
   occurrences of each named sync point. *)
let measure_workload () =
  with_temp_dir (fun dir ->
      setup_base dir;
      let store = Store.Engine.open_dir ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      Store.Failpoints.arm_counting ();
      for i = 0 to n_ops - 1 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      let bytes = Store.Failpoints.counted_bytes () in
      let events = Store.Failpoints.counted_events () in
      Store.Failpoints.disarm ();
      Store.Engine.close store;
      (bytes, events))

let test_crash_matrix_byte_cuts () =
  let reference = reference_state n_ops in
  let bytes, _ = measure_workload () in
  check_bool "workload writes bytes" true (bytes > 0);
  (* Sample torn-write boundaries across the whole workload, both with
     the written-but-unsynced bytes surviving (page cache flushed
     anyway) and with them lost (power cut). *)
  let cuts =
    List.sort_uniq compare
      [ 0; 1; 15; bytes / 4; bytes / 2; (3 * bytes) / 4; bytes - 1 ]
  in
  List.iter
    (fun lose ->
      List.iter
        (fun cut ->
          with_temp_dir (fun dir ->
              let label = Printf.sprintf "cut %d bytes (lose=%b)" cut lose in
              let completed, crashed =
                run_crash_trial ~arm:(fun () -> Store.Failpoints.arm_cut_bytes ~lose_unsynced:lose cut) dir
              in
              check_bool (label ^ ": crashed") true crashed;
              verify_recovery ~label ~completed dir reference))
        cuts)
    [ false; true ]

let test_crash_matrix_sync_points () =
  let reference = reference_state n_ops in
  let _, events = measure_workload () in
  check_bool "wal.write observed" true (List.mem_assoc "wal.write" events);
  check_bool "wal.fsync observed" true (List.mem_assoc "wal.fsync" events);
  List.iter
    (fun lose ->
      List.iter
        (fun (point, count) ->
          (* First and last occurrence of every named point. *)
          List.iter
            (fun n ->
              with_temp_dir (fun dir ->
                  let label = Printf.sprintf "%s #%d (lose=%b)" point n lose in
                  let completed, crashed =
                    run_crash_trial
                      ~arm:(fun () -> Store.Failpoints.arm_at_event ~lose_unsynced:lose point ~n)
                      dir
                  in
                  check_bool (label ^ ": crashed") true crashed;
                  verify_recovery ~label ~completed dir reference))
            (List.sort_uniq compare [ 1; count ]))
        events)
    [ false; true ]

let test_crash_during_checkpoint () =
  let reference = reference_state n_ops in
  List.iter
    (fun point ->
      with_temp_dir (fun dir ->
          setup_base dir;
          let store = Store.Engine.open_dir ~dir () in
          let edb = Option.get (Store.Engine.encrypted store "t") in
          for i = 0 to n_ops - 1 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          Store.Failpoints.arm_at_event ~lose_unsynced:true point ~n:1;
          let crashed =
            match Store.Engine.checkpoint store with
            | exception Store.Failpoints.Crash _ -> true
            | () -> false
          in
          Store.Failpoints.disarm ();
          check_bool (point ^ ": checkpoint crashed") true crashed;
          (* Nothing was acknowledged during the checkpoint, so
             recovery must reproduce all n_ops rows — from the old
             snapshot + WAL, or from the new snapshot, depending on
             where the crash landed. *)
          verify_recovery ~label:("checkpoint @ " ^ point) ~completed:n_ops dir reference))
    [ "snapshot.write"; "snapshot.fsync"; "snapshot.rename"; "dir.fsync" ]

let test_checkpoint_crash_reader_holds_old_epoch () =
  (* A reader freezes an epoch mid-workload, the writer keeps inserting,
     then a checkpoint crashes at each point of its write/fsync/rename
     sequence. The frozen view shares nothing with the snapshot writer,
     so it must keep answering byte-identically through the crash — and
     recovery from disk must still reproduce the full workload. *)
  let reference = reference_state n_ops in
  List.iter
    (fun point ->
      with_temp_dir (fun dir ->
          setup_base dir;
          let store = Store.Engine.open_dir ~dir () in
          let edb = Option.get (Store.Engine.encrypted store "t") in
          let half = n_ops / 2 in
          for i = 0 to half - 1 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          let view = Wre.Encrypted_db.freeze edb in
          let alice_at_freeze =
            (Wre.Encrypted_db.search_ids edb ~view ~column:"name" "alice")
              .Sqldb.Executor.row_ids
          in
          for i = half to n_ops - 1 do
            ignore (Wre.Encrypted_db.insert edb (op_row i))
          done;
          Store.Failpoints.arm_at_event ~lose_unsynced:true point ~n:1;
          let crashed =
            match Store.Engine.checkpoint store with
            | exception Store.Failpoints.Crash _ -> true
            | () -> false
          in
          Store.Failpoints.disarm ();
          check_bool (point ^ ": checkpoint crashed") true crashed;
          let alice_after =
            (Wre.Encrypted_db.search_ids edb ~view ~column:"name" "alice")
              .Sqldb.Executor.row_ids
          in
          check_bool (point ^ ": view answers unchanged") true (alice_after = alice_at_freeze);
          check_int (point ^ ": view stays at its epoch") half (Sqldb.Read_view.live_count view);
          check_bool (point ^ ": writer rows invisible through view") true
            (Sqldb.Read_view.live_count view < Sqldb.Table.row_count (Wre.Encrypted_db.table edb));
          verify_recovery ~label:("checkpoint+reader @ " ^ point) ~completed:n_ops dir reference))
    [ "snapshot.write"; "snapshot.fsync"; "snapshot.rename" ]

let test_group_commit_window_of_loss () =
  with_temp_dir (fun dir ->
      setup_base dir;
      (* group_commit = 10: three acked-in-memory inserts ride an
         unsynced window; a power cut (lose_unsynced) drops them. This
         is the documented durability trade — the recovered state must
         still be a clean prefix (here: the base), never garbage. *)
      let store = Store.Engine.open_dir ~group_commit:10 ~dir () in
      let edb = Option.get (Store.Engine.encrypted store "t") in
      for i = 0 to 2 do
        ignore (Wre.Encrypted_db.insert edb (op_row i))
      done;
      Store.Failpoints.arm_at_event ~lose_unsynced:true "wal.write" ~n:1;
      let crashed =
        match Wre.Encrypted_db.insert edb (op_row 3) with
        | exception Store.Failpoints.Crash _ -> true
        | _ -> false
      in
      Store.Failpoints.disarm ();
      check_bool "crash fires" true crashed;
      let store = Store.Engine.open_dir ~dir () in
      let t = Wre.Encrypted_db.table (Option.get (Store.Engine.encrypted store "t")) in
      check_int "unsynced window lost, base intact" 0 (Sqldb.Table.row_count t);
      Store.Engine.close store)

(* ---------------- Io syscall hardening ---------------- *)

(* Regression (PR 7): [Io.write] used to issue one [Unix.write_substring]
   and assume it took the whole string — an EINTR/EAGAIN or short write
   either killed the caller or silently dropped bytes, and [Io.size]
   diverged from the file. [Failpoints.arm_syscalls] scripts the kernel's
   answers so the retry loop itself is what's under test. *)

let test_io_write_retries_transient_errors () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.bin" in
      let f = Store.Io.open_trunc path in
      Store.Failpoints.arm_syscalls
        [ `Errno Unix.EINTR; `Short 3; `Errno Unix.EAGAIN; `Short 4 ];
      Store.Io.write f "hello world";
      Store.Failpoints.disarm ();
      check_int "size accounts every byte" 11 (Store.Io.size f);
      Store.Io.close f;
      check_bool "content intact" true (Store.Io.read_file path = Some "hello world"))

let test_io_write_partial_progress_accounted () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.bin" in
      let f = Store.Io.open_trunc path in
      Store.Io.write f "base-";
      (* Three bytes land, then the disk fills: the error must propagate
         AND the recorded size must match exactly what reached the fd. *)
      Store.Failpoints.arm_syscalls [ `Short 3; `Errno Unix.ENOSPC ];
      let raised =
        match Store.Io.write f "abcdefgh" with
        | () -> false
        | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true
      in
      Store.Failpoints.disarm ();
      check_bool "fatal errno propagates" true raised;
      check_int "size = prior + partial progress" 8 (Store.Io.size f);
      Store.Io.close f;
      check_bool "disk matches bookkeeping" true (Store.Io.read_file path = Some "base-abc"))

let test_wal_append_under_interrupts () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.bin" in
      let wal = Store.Wal.create ~path ~group_commit:1 ~next_lsn:1L in
      Store.Failpoints.arm_syscalls
        [ `Errno Unix.EINTR; `Short 2; `Errno Unix.EAGAIN; `Short 1; `Errno Unix.EINTR ];
      ignore (Store.Wal.append wal "alpha");
      ignore (Store.Wal.append wal "beta");
      Store.Failpoints.disarm ();
      Store.Wal.close wal;
      let got = ref [] in
      let max_lsn, _ = Store.Wal.replay ~path (fun _ p -> got := p :: !got) in
      check_bool "frames intact through interrupts" true (List.rev !got = [ "alpha"; "beta" ]);
      check_bool "lsn" true (max_lsn = 2L))

(* ---------------- suite ---------------- *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_vector;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "codec",
        [
          Alcotest.test_case "scalars" `Quick test_codec_scalars;
          Alcotest.test_case "truncation rejected" `Quick test_codec_truncation_rejected;
          Alcotest.test_case "table snapshot" `Quick test_codec_table_snapshot_roundtrip;
          Alcotest.test_case "snapshot arity checked" `Quick test_codec_snapshot_arity_checked;
          Alcotest.test_case "record ops" `Quick test_record_roundtrip;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt tail" `Quick test_wal_corrupt_tail;
          Alcotest.test_case "group-commit knob" `Quick test_wal_group_commit_knob;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "plain table" `Quick test_plain_table_roundtrip;
          Alcotest.test_case "encrypted + tag continuity" `Quick
            test_encrypted_roundtrip_continues_stream;
          Alcotest.test_case "checkpoint tail replay" `Quick test_checkpoint_replays_only_tail;
          Alcotest.test_case "vacuum + checkpoint" `Quick
            test_vacuum_checkpoint_shrinks_no_resurrection;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "tmp ignored" `Quick test_snapshot_tmp_ignored;
          Alcotest.test_case "corrupt rejected" `Quick test_corrupt_snapshot_rejected;
          Alcotest.test_case "stream = record" `Quick test_snapshot_stream_equals_record;
          Alcotest.test_case "WRESNAP2 fixture opens" `Quick test_wresnap2_fixture_opens;
          Alcotest.test_case "atomic_write_text" `Quick test_atomic_write_text_crash_safe;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "byte-cut matrix" `Slow test_crash_matrix_byte_cuts;
          Alcotest.test_case "sync-point matrix" `Slow test_crash_matrix_sync_points;
          Alcotest.test_case "crash during checkpoint" `Quick test_crash_during_checkpoint;
          Alcotest.test_case "checkpoint crash with live reader" `Quick
            test_checkpoint_crash_reader_holds_old_epoch;
          Alcotest.test_case "group-commit loss window" `Quick test_group_commit_window_of_loss;
        ] );
      ( "io_syscalls",
        [
          Alcotest.test_case "transient errors retried" `Quick
            test_io_write_retries_transient_errors;
          Alcotest.test_case "partial progress accounted" `Quick
            test_io_write_partial_progress_accounted;
          Alcotest.test_case "wal append under interrupts" `Quick
            test_wal_append_under_interrupts;
        ] );
      ("properties", q [ qcheck_codec_value_roundtrip ]);
    ]
