(* Wire-protocol and batched-admission server tests (PR 7).

   Three layers, mirroring lib/server:
   - Wire: qcheck round-trips for every message constructor, plus an
     adversarial decode battery (truncation, corruption, oversized and
     "negative" lengths, garbage preambles, trailing bytes) — every one
     must come back as a clean [error], never an exception;
   - Admission: the batching semantics against fake executors —
     coalescing within a window, write serialization, executor failure
     containment, stop/drain;
   - Daemon: a live in-process server over a real Unix-domain socket —
     byte-identity with the in-process snapshot path, session isolation
     under a garbage client, concurrent-client correctness, and INSERT
     durability across a server stop + engine reopen. *)

module Wire = Server.Wire
module Admission = Server.Admission
module Daemon = Server.Daemon
module Client = Server.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* scratch directories (same convention as test_store) *)

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
      (Printf.sprintf "wre_srv_test.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ---------------- wire: generators ---------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Sqldb.Value.Null;
        map (fun i -> Sqldb.Value.Int (Int64.of_int i)) int;
        map (fun i -> Sqldb.Value.Real (float_of_int i /. 16.0)) int;
        map (fun s -> Sqldb.Value.Text s) (string_size (int_bound 12));
        map (fun s -> Sqldb.Value.Blob s) (string_size (int_bound 12));
      ])

let row_gen = QCheck.Gen.(map Array.of_list (list_size (int_bound 5) value_gen))
let short_string = QCheck.Gen.(string_size (int_bound 20))

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Wire.Hello { client }) short_string;
        map (fun sql -> Wire.Query { sql }) short_string;
        return Wire.Ping;
        return Wire.Stats;
        return Wire.Quit;
      ])

let response_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (sid, server, tables) ->
            Wire.Welcome { session_id = Int64.of_int sid; server; tables })
          (triple nat short_string (list_size (int_bound 4) short_string));
        map
          (fun ((columns, rows), (affected, server_rows)) ->
            Wire.Result { columns; rows; affected; server_rows })
          (pair
             (pair (list_size (int_bound 4) short_string) (list_size (int_bound 6) row_gen))
             (pair nat nat));
        map (fun message -> Wire.Failed { message }) short_string;
        return Wire.Pong;
        map (fun text -> Wire.Stats_reply { text }) short_string;
        return Wire.Bye;
      ])

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request encode/decode roundtrip"
    (QCheck.make request_gen) (fun r -> Wire.decode_request (Wire.encode_request r) = Ok r)

let qcheck_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"response encode/decode roundtrip"
    (QCheck.make response_gen) (fun r -> Wire.decode_response (Wire.encode_response r) = Ok r)

let qcheck_frame_roundtrip =
  QCheck.Test.make ~count:300 ~name:"frame header + crc accept own output"
    (QCheck.make QCheck.Gen.(string_size (int_bound 200)))
    (fun payload ->
      let f = Wire.frame payload in
      match Wire.parse_header (String.sub f 0 Wire.header_bytes) with
      | Error _ -> false
      | Ok (len, crc) ->
          len = String.length payload
          && Wire.check_payload ~crc (String.sub f Wire.header_bytes len) = Ok ())

(* ---------------- wire: adversarial decode ---------------- *)

(* Feed exact byte prefixes through a real pipe so the blocking reader
   sees genuine EOF mid-frame, exactly like a client dying mid-send. *)
let recv_of_bytes bytes =
  let r, w = Unix.pipe ~cloexec:true () in
  Store.Io.write_fd_all w bytes;
  Unix.close w;
  let res = Wire.recv_request r in
  Unix.close r;
  res

let test_adversarial_stream () =
  let full = Wire.frame (Wire.encode_request (Wire.Query { sql = "SELECT 1" })) in
  check_bool "clean EOF at frame boundary" true (recv_of_bytes "" = Error `Eof);
  check_bool "truncated header" true
    (recv_of_bytes (String.sub full 0 5) = Error (`Err (Wire.Malformed "truncated header")));
  check_bool "truncated frame" true
    (recv_of_bytes (String.sub full 0 (String.length full - 3))
    = Error (`Err (Wire.Malformed "truncated frame")));
  check_bool "garbage preamble" true
    (recv_of_bytes "garbage-garbage!" = Error (`Err Wire.Bad_magic));
  (* Flip one payload byte: the CRC must catch it. *)
  let corrupted = Bytes.of_string full in
  let last = Bytes.length corrupted - 1 in
  Bytes.set corrupted last (Char.chr (Char.code (Bytes.get corrupted last) lxor 0x40));
  check_bool "corrupted payload" true
    (recv_of_bytes (Bytes.to_string corrupted) = Error (`Err Wire.Bad_crc))

let header_with_len len =
  let b = Buffer.create Wire.header_bytes in
  Store.Codec.put_u32 b Wire.magic;
  Store.Codec.put_u32 b len;
  Store.Codec.put_u32 b 0;
  Buffer.contents b

let test_adversarial_lengths () =
  check_bool "oversized length" true
    (recv_of_bytes (header_with_len (Wire.max_frame + 1))
    = Error (`Err (Wire.Oversized (Wire.max_frame + 1))));
  (* A "negative" 32-bit length decodes as a huge positive int and must
     fail the same bound — before any allocation. *)
  check_bool "negative-as-u32 length" true
    (recv_of_bytes (header_with_len 0xFFFFFFFF)
    = Error (`Err (Wire.Oversized 0xFFFFFFFF)));
  check_bool "max_frame itself is only bounded by the stream" true
    (match recv_of_bytes (header_with_len Wire.max_frame) with
    | Error (`Err (Wire.Malformed _)) -> true (* accepted, then truncated *)
    | _ -> false)

let test_adversarial_payloads () =
  let malformed = function Error (Wire.Malformed _) -> true | _ -> false in
  check_bool "unknown request tag" true (malformed (Wire.decode_request "\x09"));
  check_bool "unknown response tag" true (malformed (Wire.decode_response "\x09"));
  check_bool "empty payload" true (malformed (Wire.decode_request ""));
  check_bool "trailing bytes" true
    (malformed (Wire.decode_request (Wire.encode_request Wire.Ping ^ "x")));
  (* A count prefix larger than the remaining payload must fail fast,
     not drive a giant List.init. *)
  let b = Buffer.create 16 in
  Store.Codec.put_u8 b 2 (* Result *);
  Store.Codec.put_u32 b 0xFFFFFF (* "16M columns" in a 9-byte payload *);
  check_bool "count exceeding payload" true (malformed (Wire.decode_response (Buffer.contents b)))

(* ---------------- admission ---------------- *)

let test_admission_batches_and_writes () =
  let sizes = ref [] in
  let sizes_m = Mutex.create () in
  let adm =
    Admission.create ~window_ns:50e6 ~batch_max:8
      ~run_batch:(fun xs ->
        Mutex.lock sizes_m;
        sizes := Array.length xs :: !sizes;
        Mutex.unlock sizes_m;
        Array.map (fun x -> x * 2) xs)
      ~run_write:(fun x -> x * 1000)
      ~on_exn:(fun _ -> -1)
      ()
  in
  let replies = Array.make 4 0 in
  let readers =
    List.init 4 (fun i ->
        Thread.create (fun () -> replies.(i) <- Admission.submit adm Admission.Read (i + 1)) ())
  in
  List.iter Thread.join readers;
  check_bool "read replies match payloads" true
    (Array.to_list replies |> List.sort compare = [ 2; 4; 6; 8 ]);
  (* All four submitted inside one 50 ms window: they cannot have run
     as four singleton batches. *)
  check_int "all jobs ran" 4 (List.fold_left ( + ) 0 !sizes);
  check_bool "window coalesced concurrent reads" true (List.exists (fun s -> s >= 2) !sizes);
  check_int "write goes through run_write" 7000 (Admission.submit adm Admission.Mutate 7);
  Admission.stop adm;
  Admission.stop adm (* idempotent *);
  check_bool "submit after stop raises" true
    (match Admission.submit adm Admission.Read 1 with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true)

(* A full batch already queued must not pay the admission window: with
   a 2 s window and batch_max reads waiting behind a blocked write, the
   batch has to complete as soon as the write releases — the sleep buys
   no extra coalescing once the batch is full on arrival. *)
let test_admission_full_batch_skips_window () =
  let batch_max = 4 in
  let write_entered = Atomic.make false in
  let queued = Atomic.make 0 in
  let released_at = Atomic.make 0.0 in
  let batch_sizes = ref [] in
  let adm =
    Admission.create ~window_ns:2e9 ~batch_max
      ~run_batch:(fun xs ->
        batch_sizes := Array.length xs :: !batch_sizes;
        xs)
      ~run_write:(fun x ->
        (* Hold the batcher until every reader is queued behind us. *)
        Atomic.set write_entered true;
        while Atomic.get queued < batch_max do
          Thread.yield ()
        done;
        (* Readers bump [queued] just before submitting; give the last
           push time to land in the queue. *)
        Thread.delay 0.2;
        Atomic.set released_at (Unix.gettimeofday ());
        x)
      ~on_exn:(fun _ -> -1)
      ()
  in
  let writer = Thread.create (fun () -> ignore (Admission.submit adm Admission.Mutate 0)) () in
  (* Only start the readers once the batcher is inside run_write, so
     all of them queue behind the in-flight mutation. *)
  while not (Atomic.get write_entered) do
    Thread.yield ()
  done;
  let readers =
    List.init batch_max (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr queued;
            ignore (Admission.submit adm Admission.Read (i + 1)))
          ())
  in
  List.iter Thread.join readers;
  let elapsed = Unix.gettimeofday () -. Atomic.get released_at in
  Thread.join writer;
  Admission.stop adm;
  check_bool "full batch ran without the window sleep" true (elapsed < 1.0);
  check_bool "reads ran as one full batch" true (List.mem batch_max !batch_sizes)

let test_admission_contains_executor_failure () =
  let adm =
    Admission.create
      ~run_batch:(fun _ -> failwith "executor down")
      ~run_write:(fun _ -> failwith "wal down")
      ~on_exn:(fun m -> "err:" ^ m)
      ()
  in
  check_bool "read failure becomes on_exn reply" true
    (String.length (Admission.submit adm Admission.Read "q") > 4);
  check_bool "write failure becomes on_exn reply" true
    (String.sub (Admission.submit adm Admission.Mutate "w") 0 4 = "err:");
  (* The batcher survived both failures. *)
  let adm2 = adm in
  check_bool "batcher still alive" true (String.length (Admission.submit adm2 Admission.Read "q2") > 0);
  Admission.stop adm

(* ---------------- daemon fixtures ---------------- *)

let plain_schema =
  Sqldb.Schema.create
    [
      { name = "id"; ty = Sqldb.Value.TInt; nullable = false };
      { name = "name"; ty = Sqldb.Value.TText; nullable = false };
      { name = "city"; ty = Sqldb.Value.TText; nullable = false };
    ]

let names = [| "ann"; "bob"; "cat"; "dan"; "eve" |]
let cities = [| "pdx"; "sea"; "nyc" |]

let row_of prng i =
  [|
    Sqldb.Value.Int (Int64.of_int i);
    Sqldb.Value.Text names.(Stdx.Prng.int prng (Array.length names));
    Sqldb.Value.Text cities.(Stdx.Prng.int prng (Array.length cities));
  |]

let build_store ~dir ~seed ~rows:n =
  let prng = Stdx.Prng.create seed in
  let rows = List.init n (row_of prng) in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ] (List.to_seq rows)
  in
  let store = Store.Engine.open_dir ~dir () in
  let edb =
    Store.Engine.create_encrypted store ~fallback:`Min_frequency ~name:"people" ~plain_schema
      ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ]
      ~kind:(Wre.Scheme.Poisson 40.0)
      ~master:(Crypto.Keys.generate (Stdx.Prng.create (Int64.logxor seed 0xc0ffeeL)))
      ~dist_of ~seed:(Int64.logxor seed 0x5eedL) ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
  (store, edb)

let with_server ?(domains = 2) ?(window_ns = 0.0) ?(batch_max = 64) ~dir f =
  let store, edb = build_store ~dir ~seed:11L ~rows:40 in
  let cfg =
    {
      Daemon.socket_path = Filename.concat dir "wre.sock";
      domains;
      window_ns;
      batch_max;
      backlog = 64;
    }
  in
  match Daemon.start cfg store with
  | Error e -> Alcotest.failf "daemon refused to start: %s" e
  | Ok d ->
      Fun.protect
        ~finally:(fun () ->
          Daemon.stop d;
          Store.Engine.close store)
        (fun () -> f (d, store, edb))

let canonical_remote (p : Wire.result_payload) = Wire.encode_response (Wire.Result p)

let canonical_local (q : Wre.Proxy.query_result) =
  Wire.encode_response
    (Wire.Result
       { columns = q.columns; rows = q.rows; affected = q.affected; server_rows = q.server_rows })

(* ---------------- daemon tests ---------------- *)

let test_server_byte_identity () =
  with_temp_dir (fun dir ->
      with_server ~dir (fun (d, _store, edb) ->
          let proxy = Wre.Proxy.create edb in
          let c = Result.get_ok (Client.connect ~socket_path:(Daemon.socket_path d) ()) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              check_bool "welcome announces the table" true (Client.tables c = [ "people" ]);
              List.iter
                (fun sql ->
                  let remote = Result.get_ok (Client.query c sql) in
                  let local = Result.get_ok (Wre.Proxy.execute proxy sql) in
                  check_bool
                    (Printf.sprintf "byte-identical result for %s" sql)
                    true
                    (canonical_remote remote = canonical_local local))
                [
                  "SELECT * FROM people WHERE name = 'ann'";
                  "SELECT name, city FROM people WHERE city = 'pdx' LIMIT 5";
                  "SELECT * FROM people WHERE name = 'bob' OR name = 'eve'";
                  "SELECT id FROM people WHERE id = 7";
                ])))

let test_server_garbage_session_isolated () =
  with_temp_dir (fun dir ->
      with_server ~dir (fun (d, _store, _edb) ->
          let rejected_before =
            Obs.Metrics.counter_value (Obs.Metrics.counter "server.frames_rejected_total")
          in
          let good = Result.get_ok (Client.connect ~socket_path:(Daemon.socket_path d) ()) in
          Fun.protect
            ~finally:(fun () -> Client.close good)
            (fun () ->
              check_bool "good session works" true
                (Result.is_ok (Client.query good "SELECT * FROM people WHERE name = 'ann'"));
              (* A client that speaks garbage gets a clean rejection and a
                 closed connection... *)
              let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX (Daemon.socket_path d));
              Store.Io.write_fd_all fd "garbage-garbage!";
              check_bool "rejection reply" true
                (match Wire.recv_response fd with Ok (Wire.Failed _) -> true | _ -> false);
              check_bool "rejected session closed" true (Wire.recv_response fd = Error `Eof);
              Unix.close fd;
              check_bool "rejection counted" true
                (Obs.Metrics.counter_value (Obs.Metrics.counter "server.frames_rejected_total")
                > rejected_before);
              (* ...while the established session keeps being served. *)
              check_bool "good session survives" true
                (Result.is_ok (Client.query good "SELECT * FROM people WHERE name = 'bob'")))))

let test_server_concurrent_clients_batch () =
  with_temp_dir (fun dir ->
      with_server ~dir ~domains:2 ~window_ns:50e6 ~batch_max:64 (fun (d, _store, edb) ->
          let proxy = Wre.Proxy.create edb in
          let sql = "SELECT * FROM people WHERE city = 'sea'" in
          let expected = canonical_local (Result.get_ok (Wre.Proxy.execute proxy sql)) in
          let batches = Obs.Metrics.counter "server.batches_total" in
          let batches_before = Obs.Metrics.counter_value batches in
          let n_clients = 8 in
          let failures = Atomic.make 0 in
          let threads =
            List.init n_clients (fun _ ->
                Thread.create
                  (fun () ->
                    match Client.connect ~socket_path:(Daemon.socket_path d) () with
                    | Error _ -> Atomic.incr failures
                    | Ok c ->
                        Fun.protect
                          ~finally:(fun () -> Client.close c)
                          (fun () ->
                            for _ = 1 to 3 do
                              match Client.query c sql with
                              | Ok p when canonical_remote p = expected -> ()
                              | Ok _ | Error _ -> Atomic.incr failures
                            done))
                  ())
          in
          List.iter Thread.join threads;
          check_int "every reply byte-identical" 0 (Atomic.get failures);
          let batches_ran = Obs.Metrics.counter_value batches - batches_before in
          check_bool "ran at least one batch" true (batches_ran >= 1);
          (* 24 queries inside 50 ms windows cannot all have been
             singleton batches. *)
          check_bool "admission coalesced queries" true (batches_ran < n_clients * 3)))

let test_server_insert_durable_across_restart () =
  with_temp_dir (fun dir ->
      let sock =
        with_server ~dir (fun (d, _store, _edb) ->
            let c = Result.get_ok (Client.connect ~socket_path:(Daemon.socket_path d) ()) in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let ins = Result.get_ok (Client.query c "INSERT INTO people VALUES (999, 'zed', 'pdx')") in
                check_int "one row inserted" 1 ins.Wire.affected;
                let sel = Result.get_ok (Client.query c "SELECT * FROM people WHERE name = 'zed'") in
                check_int "visible to reads after the write" 1 (List.length sel.Wire.rows));
            Daemon.socket_path d)
      in
      check_bool "socket removed on stop" false (Sys.file_exists sock);
      (* The server stopped without a checkpoint: reopening replays the
         WAL, and the acknowledged INSERT must be there. *)
      let store = Store.Engine.open_dir ~dir () in
      Fun.protect
        ~finally:(fun () -> Store.Engine.close store)
        (fun () ->
          let edb = Option.get (Store.Engine.encrypted store "people") in
          let proxy = Wre.Proxy.create edb in
          let q = Result.get_ok (Wre.Proxy.execute proxy "SELECT * FROM people WHERE name = 'zed'") in
          check_int "insert survived restart" 1 (List.length q.Wre.Proxy.rows)))

let test_server_control_requests () =
  with_temp_dir (fun dir ->
      with_server ~dir (fun (d, _store, _edb) ->
          let c = Result.get_ok (Client.connect ~socket_path:(Daemon.socket_path d) ()) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              check_bool "ping" true (Client.ping c = Ok ());
              match Client.stats c with
              | Error e -> Alcotest.failf "stats failed: %s" e
              | Ok text ->
                  let contains hay needle =
                    let nh = String.length hay and nn = String.length needle in
                    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
                    go 0
                  in
                  check_bool "stats dump includes server counters" true
                    (contains text "server.requests_total"))))

let test_server_requires_encrypted_tables () =
  with_temp_dir (fun dir ->
      let store = Store.Engine.open_dir ~dir:(Filename.concat dir "empty") () in
      Fun.protect
        ~finally:(fun () -> Store.Engine.close store)
        (fun () ->
          let cfg = Daemon.default_config ~socket_path:(Filename.concat dir "s.sock") in
          check_bool "refuses a store with nothing to serve" true
            (Result.is_error (Daemon.start cfg store))))

(* ---------------- suite ---------------- *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [
      ( "wire_adversarial",
        [
          Alcotest.test_case "stream truncation/corruption" `Quick test_adversarial_stream;
          Alcotest.test_case "length bounds" `Quick test_adversarial_lengths;
          Alcotest.test_case "payload shapes" `Quick test_adversarial_payloads;
        ] );
      ( "admission",
        [
          Alcotest.test_case "batches reads, serializes writes" `Quick
            test_admission_batches_and_writes;
          Alcotest.test_case "full batch skips window" `Quick
            test_admission_full_batch_skips_window;
          Alcotest.test_case "contains executor failure" `Quick
            test_admission_contains_executor_failure;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "byte identity with in-process path" `Quick
            test_server_byte_identity;
          Alcotest.test_case "garbage session isolated" `Quick
            test_server_garbage_session_isolated;
          Alcotest.test_case "concurrent clients batch" `Quick
            test_server_concurrent_clients_batch;
          Alcotest.test_case "insert durable across restart" `Quick
            test_server_insert_durable_across_restart;
          Alcotest.test_case "ping/stats" `Quick test_server_control_requests;
          Alcotest.test_case "refuses plain store" `Quick test_server_requires_encrypted_tables;
        ] );
      ( "wire_properties",
        q [ qcheck_request_roundtrip; qcheck_response_roundtrip; qcheck_frame_roundtrip ] );
    ]
