(* wre_bench — the repository's wall-clock benchmark (see README.md in
   this directory).

     wre_bench.exe --workload read-mix|mixed-rw|bulk-load --seed N
                   --seconds S --trace 0|1 --server-exe PATH
                   [--work-dir DIR] [--rev REV]

   With --trace 0 it measures the end-to-end metrics: read-mix and
   mixed-rw against a separate wre_server process driven by closed-loop
   WRE1 connections, bulk-load in this process. With --trace 1 it
   replays the same statements in-process with a span around every
   public call into each layer and reports the per-layer metrics.
   Every answer is checked against a plaintext Sqldb mirror. The last
   line of standard output is the JSON result. *)

open Sqldb
module W = Workload

let fail fmt = Printf.ksprintf failwith fmt
let ms ns = ns /. 1e6
let us ns = ns /. 1e3
let log fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* ---------------- settings ---------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let server_exe = ref ""
let work_dir = ref ".perfbench_work"
let rev = ref "unknown"
let started = Unix.gettimeofday ()

(* Setups per end-to-end run; setup_s is their median. A bulk-load
   setup (generate + profile) takes under a second, so it is repeated
   more to steady the median. *)
let setup_repeats = function W.Bulk_load -> 7 | W.Read_mix | W.Mixed_rw -> 3

(* Statements per client list. Read lists are replayed cyclically;
   mixed-rw lists must outlast the run (writes never repeat). *)
let read_list_len = 1000
let mixed_list_len = 6000

(* Samples a run must hold before it may stop, so the tail percentile
   is always p99 for reads (ten samples beyond it) and write latency
   rests on enough writes. A run past [seconds] keeps going until both
   are met, up to [overtime] times its length. *)
let min_reads = 1000
let min_writes = 200
let overtime = 3.0

(* Statements a traced run replays in-process (each of two replays):
   enough for every bucket's pool, short enough that a traced run
   stays well inside its time limit on a slow host. *)
let replay_cap = 600

(* Statements a fresh server answers before the clock starts. *)
let warm_reads = 32

(* bulk-load streams its rows through insert_batch in chunks this big. *)
let load_chunk_rows = 4096
let socket = "wre.sock"

let clients () = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---------------- files and processes ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> Out_channel.output_string oc data))
    (Sys.readdir src)

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let rss_bytes () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmRSS:")
      (String.split_on_char '\n' status)
  with
  | Some l -> Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> kb * 1024)
  | None -> fail "no VmRSS in /proc/self/status"

(* Live server pids, killed on any exit path. *)
let servers : int list ref = ref []

let reap pid =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 3000

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid;
  servers := List.filter (( <> ) pid) !servers

let () = at_exit (fun () -> List.iter stop_server !servers)

(* Start wre_server with its shipped defaults apart from --dir and
   --socket; return once it reports ready, with the settings it
   reported. *)
let start_server ~dir =
  let log_path = dir ^ ".log" in
  let fd = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process !server_exe
      [| !server_exe; "--dir"; dir; "--socket"; socket |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  servers := pid :: !servers;
  let ready = "wre_server: ready " in
  let rec wait tries =
    let text = In_channel.with_open_bin log_path In_channel.input_all in
    match
      List.find_opt
        (fun l -> String.length l >= String.length ready && String.sub l 0 (String.length ready) = ready)
        (String.split_on_char '\n' text)
    with
    | Some line -> String.sub line (String.length ready) (String.length line - String.length ready)
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when tries > 0 ->
            Unix.sleepf 0.002;
            wait (tries - 1)
        | _ -> fail "wre_server did not become ready: %s" text)
  in
  let settings = wait 30_000 in
  (pid, settings)

let connect () =
  match Server.Client.connect ~client_name:"wre_bench" ~socket_path:socket () with
  | Ok c -> c
  | Error e -> fail "connect: %s" e

(* ---------------- the server's registry, read through Stats ---------------- *)

let parse_ns s =
  let num suffix scale =
    let n = String.length s - String.length suffix in
    float_of_string (String.sub s 0 n) *. scale
  in
  if String.ends_with ~suffix:"ns" s then num "ns" 1.0
  else if String.ends_with ~suffix:"us" s then num "us" 1e3
  else if String.ends_with ~suffix:"ms" s then num "ms" 1e6
  else if String.ends_with ~suffix:"s" s then num "s" 1e9
  else fail "unparsable duration %S" s

type stats = { counters : (string * int) list; p50s : (string * float) list }

let parse_stats text =
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  List.fold_left
    (fun acc l ->
      match words l with
      | [ name; v ] when name.[0] <> '#' -> (
          match int_of_string_opt v with
          | Some v -> { acc with counters = (name, v) :: acc.counters }
          | None -> acc)
      | name :: _count :: p50 :: _ when String.starts_with ~prefix:"p50=" p50 ->
          { acc with p50s = (name, parse_ns (String.sub p50 4 (String.length p50 - 4))) :: acc.p50s }
      | _ -> acc)
    { counters = []; p50s = [] }
    (String.split_on_char '\n' text)

let server_stats c =
  match Server.Client.stats c with Ok t -> parse_stats t | Error e -> fail "stats: %s" e

let counter st name = float_of_int (Option.value ~default:0 (List.assoc_opt name st.counters))
let delta a b name = counter b name -. counter a name

(* ---------------- load ---------------- *)

let master seed = Crypto.Keys.generate (Stdx.Prng.create (W.key_seed seed))

let create_edb store (w : W.t) =
  Store.Engine.create_encrypted store ~name:W.table ~plain_schema:Sparta.Generator.schema
    ~key_column:"id" ~encrypted_columns:W.columns ~kind:W.scheme ~master:(master w.seed)
    ~dist_of:w.dist_of ~seed:(W.edb_seed w.seed) ()

let chunks rows =
  let n = Array.length rows in
  List.init ((n + load_chunk_rows - 1) / load_chunk_rows) (fun i ->
      Array.sub rows (i * load_chunk_rows) (min load_chunk_rows (n - (i * load_chunk_rows))))

type load = {
  load_ns : float;  (** first insert_batch to checkpoint returned *)
  chunk_ns : float list;
  checkpoint_ns : float;
}

(* What [wre_cli init] does, streamed: create the encrypted table, feed
   the rows through insert_batch chunk by chunk, checkpoint. *)
let load_store ~pool ~dir (w : W.t) =
  let store = Store.Engine.open_dir ~dir () in
  let edb = create_edb store w in
  let t0 = Stdx.Clock.now_ns () in
  let chunk_ns =
    List.map
      (fun rows -> snd (Stdx.Clock.time_it (fun () -> ignore (Wre.Encrypted_db.insert_batch ~pool edb rows))))
      (chunks w.rows)
  in
  let (), checkpoint_ns = Stdx.Clock.time_it (fun () -> Store.Engine.checkpoint store) in
  let load = { load_ns = Stdx.Clock.now_ns () -. t0; chunk_ns; checkpoint_ns } in
  (store, edb, load)

(* ---------------- server workloads: setup ---------------- *)

let per_client kind = match kind with W.Mixed_rw -> mixed_list_len | _ -> read_list_len

let generate kind =
  W.generate ~kind ~seed:!seed ~clients:(clients ()) ~per_client:(per_client kind)

(* One full setup: generate + profile + load + checkpoint + server
   start/recovery + warm pass. *)
let setup_server kind ~pool ~dir ~keep_copy =
  let t0 = Stdx.Clock.now_ns () in
  let w = generate kind in
  let store, _, load = load_store ~pool ~dir w in
  Store.Engine.close store;
  (* A pristine copy for the traced replays; not part of the setup. *)
  let (), copy_ns =
    Stdx.Clock.time_it (fun () -> Option.iter (fun copy -> copy_dir dir copy) keep_copy)
  in
  let pid, settings = start_server ~dir in
  let c = connect () in
  Array.iter
    (fun list ->
      Array.iteri
        (fun i s ->
          match s with
          | W.Read r when i < warm_reads -> (
              match Server.Client.query c r.sql with
              | Ok _ -> ()
              | Error e -> fail "warm pass: %s" e)
          | _ -> ())
        list)
    w.lists;
  Server.Client.close c;
  (w, pid, settings, load, Stdx.Clock.now_ns () -. t0 -. copy_ns)

(* ---------------- server workloads: closed-loop clients ---------------- *)

(* One answered statement: when its answer arrived, how long it took,
   and whether it was a read. *)
type sample = { at_ns : float; ns : float; read : bool }

type client_result = {
  done_ : int;  (** statements completed: a prefix of the client's list *)
  samples : sample list;  (** newest first *)
  tally : Arith.tally;
  finish_ns : float;
}

(* One closed-loop connection: one outstanding statement, the next sent
   only when the previous answer arrived. read-mix cycles its list and
   checks every answer exactly; mixed-rw walks its list once and checks
   what concurrent writes leave checkable (every returned row matches
   its predicate, every write affects exactly one row). *)
let client_loop ~kind ~list ~expected ~start ~deadline ~cutoff ~reads_done ~writes_done () =
  let c = connect () in
  let tally = Arith.tally () in
  let samples = ref [] and i = ref 0 in
  let n = Array.length list in
  Atomic.decr start;
  while Atomic.get start > 0 do
    Domain.cpu_relax ()
  done;
  let enough () =
    Atomic.get reads_done >= min_reads
    && (kind = W.Read_mix || Atomic.get writes_done >= min_writes)
  in
  let running () =
    let now = Stdx.Clock.now_ns () in
    now < cutoff && (now < deadline || not (enough ()))
  in
  while running () && (kind = W.Read_mix || !i < n) do
    let s = list.(!i mod n) in
    let r, ns = Stdx.Clock.time_it (fun () -> Server.Client.query c (W.sql_of s)) in
    let at_ns = Stdx.Clock.now_ns () in
    (match (s, r) with
    | _, Error _ -> Arith.record tally `Failed
    | W.Read rd, Ok p ->
        samples := { at_ns; ns; read = true } :: !samples;
        Atomic.incr reads_done;
        let ok =
          match kind with
          | W.Read_mix -> W.same_rows expected.(!i mod n) p.Server.Wire.rows
          | _ -> W.rows_match ~column:rd.column ~value:rd.value p.rows
        in
        Arith.record tally (if ok then `Ok else `Wrong)
    | W.Write _, Ok p ->
        samples := { at_ns; ns; read = false } :: !samples;
        Atomic.incr writes_done;
        Arith.record tally (if p.affected = 1 then `Ok else `Wrong));
    incr i
  done;
  let finish_ns = Stdx.Clock.now_ns () in
  Server.Client.close c;
  { done_ = !i; samples = !samples; tally; finish_ns }

(* Throughput as the median over [windows] equal slices of the run:
   a host slowdown lasting a few seconds moves one slice, not the
   figure. *)
let windows = 5

let windowed_ops_per_s ~t0 ~wall samples =
  let slice = wall /. float_of_int windows in
  let counts = Array.make windows 0 in
  List.iter
    (fun s ->
      let k = min (windows - 1) (int_of_float ((s.at_ns -. t0) /. slice)) in
      counts.(k) <- counts.(k) + 1)
    samples;
  Arith.median (Array.to_list (Array.map (fun c -> float_of_int c /. (slice /. 1e9)) counts))

let run_clients ~kind ~(w : W.t) ~expected =
  let n = Array.length w.lists in
  let start = Atomic.make n in
  let t0 = Stdx.Clock.now_ns () in
  let deadline = t0 +. (float_of_int !seconds *. 1e9) in
  let cutoff = t0 +. (overtime *. float_of_int !seconds *. 1e9) in
  let reads_done = Atomic.make 0 and writes_done = Atomic.make 0 in
  let doms =
    Array.mapi
      (fun c list ->
        Domain.spawn
          (client_loop ~kind ~list ~expected:expected.(c) ~start ~deadline ~cutoff ~reads_done
             ~writes_done))
      w.lists
  in
  let results = Array.map Domain.join doms in
  let wall = Array.fold_left (fun m r -> Float.max m r.finish_ns) t0 results -. t0 in
  if kind = W.Mixed_rw then
    Array.iteri
      (fun c r ->
        if r.done_ >= Array.length w.lists.(c) then fail "mixed-rw list %d exhausted; lengthen it" c)
      results;
  (results, t0, wall)

(* Reference answers for every read-mix statement, computed before the
   clock starts; mixed-rw answers are checked after the run. *)
let expected_answers ~kind (w : W.t) mirror =
  Array.map
    (fun list ->
      Array.map
        (function
          | W.Read r when kind = W.Read_mix -> W.expected mirror ~column:r.column ~value:r.value
          | _ -> Hashtbl.create 1)
        list)
    w.lists

(* mixed-rw's check: apply each client's completed writes to the
   mirror (the id ranges make the order between clients irrelevant),
   then ask the server again for every read the clients ran and every
   row a write touched. *)
let check_final_state (w : W.t) mirror (results : client_result array) =
  let tally = Arith.tally () in
  let c = connect () in
  let ask sql want =
    match Server.Client.query c sql with
    | Ok p -> Arith.record tally (if W.same_rows want p.Server.Wire.rows then `Ok else `Wrong)
    | Error _ -> Arith.record tally `Failed
  in
  let seen = Hashtbl.create 1024 in
  Array.iteri
    (fun ci list ->
      for i = 0 to results.(ci).done_ - 1 do
        match list.(i) with
        | W.Write wr -> (
            match Sql.execute mirror wr.sql with
            | Ok r when r.affected = 1 -> ()
            | _ -> fail "mirror rejected %s" wr.sql)
        | W.Read _ -> ()
      done)
    w.lists;
  Array.iteri
    (fun ci list ->
      for i = 0 to results.(ci).done_ - 1 do
        match list.(i) with
        | W.Read r when not (Hashtbl.mem seen r.sql) ->
            Hashtbl.replace seen r.sql ();
            ask r.sql (W.expected mirror ~column:r.column ~value:r.value)
        | W.Write wr ->
            let want = Hashtbl.create 1 in
            let res =
              Executor.run (Database.table mirror W.table) ~projection:Executor.All_columns
                (Predicate.Eq ("id", Value.Int (Int64.of_int wr.id)))
            in
            Array.iter (fun row -> Hashtbl.replace want row.(0) row) res.rows;
            ask (Printf.sprintf "SELECT * FROM %s WHERE id = %d" W.table wr.id) want
        | W.Read _ -> ()
      done)
    w.lists;
  Server.Client.close c;
  tally

(* ---------------- traced in-process replay ---------------- *)

type replay = {
  spans : Arith.span list;
  wall_ns : float;  (** replay wall less the benchmark's own checking *)
  statements : int;
  reads : int;
  writes : int;
  rows_decrypted : int;
  rows_encrypted : int;
  tags : int;
  freezes : int;  (** freezes that built a new view (epoch moved) *)
  response_bytes : int;
  rows_examined : int;
  rows_returned : int;
  replay_tally : Arith.tally;
}

let rec count_tags = function
  | Predicate.In (_, vs) -> List.length vs
  | Predicate.Eq _ -> 1
  | Predicate.And ps | Predicate.Or ps -> List.fold_left (fun a p -> a + count_tags p) 0 ps
  | Predicate.Not p -> count_tags p
  | Predicate.True | Predicate.Range _ -> 0

let plain_columns =
  List.map (fun (c : Schema.column) -> c.name) (Array.to_list (Schema.columns Sparta.Generator.schema))

(* Replay [order] against the store in [dir] in this process, in the
   order given, calling each layer's public functions the way the
   daemon's path does: parse -> rewrite -> freeze -> exec -> decrypt ->
   filter -> encode/decode for a SELECT. The store defers fsync to an
   explicit [Engine.flush] after each write so the WAL flush has a span
   of its own. *)
let replay_statements ~tracer ~pool ~dir ~(w : W.t) order =
  let store = Store.Engine.open_dir ~group_commit:max_int ~dir () in
  let edb = Option.get (Store.Engine.encrypted store W.table) in
  let proxy = Wre.Proxy.create edb in
  let mirror = W.mirror w.rows in
  let sp name f = Spans.span tracer name f in
  let tally = Arith.tally () in
  let reads = ref 0 and writes = ref 0 and decrypted = ref 0 and encrypted = ref 0 in
  let tags = ref 0 and freezes = ref 0 and resp = ref 0 and check_ns = ref 0.0 in
  let last_view = ref None in
  let examined0 = Obs.Metrics.counter_value (Obs.Metrics.counter "pager.rows_examined_total") in
  let returned = ref 0 in
  let check f =
    let ok, ns = Stdx.Clock.time_it (fun () -> sp "bench.check" f) in
    check_ns := !check_ns +. ns;
    Arith.record tally (if ok then `Ok else `Wrong)
  in
  let wire payload =
    let bytes = sp "wire.encode" (fun () -> Server.Wire.encode_response payload) in
    resp := !resp + String.length bytes;
    match sp "wire.decode" (fun () -> Server.Wire.decode_response bytes) with
    | Ok (Server.Wire.Result p) -> p
    | _ -> fail "wire round trip failed"
  in
  let t0 = Stdx.Clock.now_ns () in
  List.iter
    (fun stmt ->
      Spans.request tracer "stmt" (fun () ->
          match stmt with
          | W.Read r ->
              incr reads;
              let s =
                match sp "proxy.parse" (fun () -> Sql.parse r.sql) with
                | Ok (Sql.Select s) -> s
                | _ -> fail "parse %s" r.sql
              in
              let rw =
                match sp "proxy.rewrite" (fun () -> Wre.Proxy.rewrite_select proxy s) with
                | Ok rw -> rw
                | Error e -> fail "rewrite: %s" e
              in
              tags := !tags + count_tags rw.server_predicate;
              let view = sp "sqldb.freeze" (fun () -> Wre.Encrypted_db.freeze edb) in
              (match !last_view with Some v when v == view -> () | _ -> incr freezes);
              last_view := Some view;
              let exec =
                sp "sqldb.exec" (fun () ->
                    Executor.run_view ~pool view ~projection:Executor.All_columns rw.server_predicate)
              in
              let n = Array.length exec.rows in
              returned := !returned + n;
              decrypted := !decrypted + n;
              let plain =
                sp "edb.decrypt" (fun () ->
                    Stdx.Task_pool.parallel_init pool n (fun i ->
                        Wre.Encrypted_db.decrypt_row edb exec.rows.(i)))
              in
              let rows =
                sp "proxy.filter" (fun () ->
                    let eval = Predicate.compile Sparta.Generator.schema rw.residual in
                    List.filter eval (Array.to_list plain))
              in
              let p =
                wire (Server.Wire.Result { columns = plain_columns; rows; affected = 0; server_rows = n })
              in
              check (fun () ->
                  W.same_rows (W.expected mirror ~column:r.column ~value:r.value) p.rows)
          | W.Write wr ->
              incr writes;
              let affected =
                match wr.kind with
                | W.Insert -> (
                    match sp "proxy.parse" (fun () -> Sql.parse wr.sql) with
                    | Ok (Sql.Insert { values; _ }) ->
                        let enc =
                          sp "edb.encrypt" (fun () ->
                              Wre.Encrypted_db.encrypt_plain_row edb (Array.of_list values))
                        in
                        incr encrypted;
                        ignore (sp "sqldb.apply" (fun () -> Wre.Encrypted_db.insert_encrypted edb enc));
                        1
                    | _ -> fail "parse %s" wr.sql)
                | W.Update | W.Delete -> (
                    (* No public seam inside Proxy.execute for these:
                       the enclosing call is the span. *)
                    match sp "proxy.execute" (fun () -> Wre.Proxy.execute proxy wr.sql) with
                    | Ok r -> r.affected
                    | Error e -> fail "%s: %s" wr.sql e)
              in
              sp "store.wal_flush" (fun () -> Store.Engine.flush store);
              let p = wire (Server.Wire.Result { columns = []; rows = []; affected; server_rows = 0 }) in
              check (fun () ->
                  match Sql.execute mirror wr.sql with
                  | Ok r -> r.affected = p.affected && p.affected = 1
                  | Error _ -> false)))
    order;
  let wall_ns = Stdx.Clock.now_ns () -. t0 -. !check_ns in
  let examined =
    Obs.Metrics.counter_value (Obs.Metrics.counter "pager.rows_examined_total") - examined0
  in
  Store.Engine.close store;
  {
    spans = Spans.spans tracer;
    wall_ns;
    statements = List.length order;
    reads = !reads;
    writes = !writes;
    rows_decrypted = !decrypted;
    rows_encrypted = !encrypted;
    tags = !tags;
    freezes = !freezes;
    response_bytes = !resp;
    rows_examined = examined;
    rows_returned = !returned;
    replay_tally = tally;
  }

(* The order the daemon applies two closed-loop clients' statements in:
   alternating, each client's completed prefix in its own order. *)
let interleave (w : W.t) (results : client_result array) =
  let n = Array.length w.lists in
  let longest = Array.fold_left (fun m r -> max m r.done_) 0 results in
  List.concat
    (List.init longest (fun i ->
         List.filter_map
           (fun c -> if i < results.(c).done_ then Some w.lists.(c).(i mod Array.length w.lists.(c)) else None)
           (List.init n Fun.id)))

(* The same decomposition for bulk-load: prewarm -> encrypt -> apply ->
   WAL flush per chunk, then checkpoint. Encryption runs on this domain
   (encrypt_plain_row draws from the table's one PRNG). *)
let replay_load ~tracer ~dir (w : W.t) =
  let store = Store.Engine.open_dir ~group_commit:max_int ~dir () in
  let edb = create_edb store w in
  let sp name f = Spans.span tracer name f in
  let wal_bytes = ref 0 in
  let t0 = Stdx.Clock.now_ns () in
  Spans.request tracer "load" (fun () ->
      List.iter
        (fun rows ->
          List.iter
            (fun col ->
              let enc = Wre.Encrypted_db.column_encryptor edb col in
              let distinct = Hashtbl.create 1024 in
              Array.iter (fun r -> Hashtbl.replace distinct (W.text_of r col) ()) rows;
              sp "column_enc.prewarm" (fun () ->
                  Wre.Column_enc.prewarm enc (Hashtbl.fold (fun m () acc -> m :: acc) distinct [])))
            W.columns;
          let enc =
            sp "edb.encrypt" (fun () -> Array.map (Wre.Encrypted_db.encrypt_plain_row edb) rows)
          in
          ignore (sp "sqldb.apply" (fun () -> Table.insert_batch (Wre.Encrypted_db.table edb) enc));
          sp "store.wal_flush" (fun () -> Store.Engine.flush store))
        (chunks w.rows);
      wal_bytes := file_size (Filename.concat dir "wal.bin");
      sp "store.checkpoint" (fun () -> Store.Engine.checkpoint store));
  let wall_ns = Stdx.Clock.now_ns () -. t0 in
  (store, edb, wall_ns, !wal_bytes)

(* ---------------- checks ---------------- *)

(* Every loaded row decrypts to its plaintext, and sample searches
   return exactly the mirror's rows. *)
let check_load edb (w : W.t) =
  let tally = Arith.tally () in
  let table = Wre.Encrypted_db.table edb in
  if Table.live_count table <> Array.length w.rows then
    Arith.record tally `Wrong
  else
    Array.iteri
      (fun i want ->
        let got = Wre.Encrypted_db.decrypt_row edb (Table.peek_row table i) in
        Arith.record tally (if Array.for_all2 Value.equal want got then `Ok else `Wrong))
      w.rows;
  let mirror = W.mirror w.rows in
  Array.iter
    (fun (q : Sparta.Query_gen.query) ->
      let got, _ = Wre.Encrypted_db.search_rows edb ~column:q.column q.value in
      Arith.record tally
        (if W.same_rows (W.expected mirror ~column:q.column ~value:q.value) got then `Ok else `Wrong))
    (W.queries ~kind:W.Bulk_load ~seed:w.seed ~rows:w.rows 32);
  tally

(* ---------------- derived figures ---------------- *)

let tail sorted = Arith.percentile sorted (Arith.tail_percentile (Array.length sorted))

let latency_summary ns_list =
  let sorted = Arith.sorted_of_list ns_list in
  let n = Array.length sorted in
  if n = 0 then (0, 0.0, 0.0, 0.0)
  else (n, ms (Arith.percentile sorted 50.0), ms (tail sorted), Arith.tail_percentile n)

(* AES blocks a row costs: every non-key value is one CTR stream over
   its encoding (searchable columns encrypt the raw text). *)
let aes_blocks row =
  let blocks len = (len + 15) / 16 in
  let total = ref 0 in
  Array.iteri
    (fun i v ->
      if i > 0 then
        let len =
          match v with
          | Value.Text s when List.mem (List.nth plain_columns i) W.columns -> String.length s
          | v -> String.length (Wre.Value_codec.encode v)
        in
        total := !total + blocks len)
    row;
  !total

let mean_aes_blocks rows =
  Arith.ratio
    (float_of_int (Array.fold_left (fun a r -> a + aes_blocks r) 0 rows))
    (float_of_int (Array.length rows))

(* Per-layer figures from a replay's spans. *)
type span_sums = { total : string -> float; count : string -> int; self_by_layer : (string * float) list }

let span_sums spans =
  let tot = Hashtbl.create 16 and cnt = Hashtbl.create 16 and layer = Hashtbl.create 8 in
  List.iter
    (fun ((s : Arith.span), self) ->
      Hashtbl.replace tot s.name (Arith.duration s +. Option.value ~default:0.0 (Hashtbl.find_opt tot s.name));
      Hashtbl.replace cnt s.name (1 + Option.value ~default:0 (Hashtbl.find_opt cnt s.name));
      match Spans.layer_of s.name with
      | Some l -> Hashtbl.replace layer l (self +. Option.value ~default:0.0 (Hashtbl.find_opt layer l))
      | None -> ())
    (Arith.self_times spans);
  {
    total = (fun n -> Option.value ~default:0.0 (Hashtbl.find_opt tot n));
    count = (fun n -> Option.value ~default:0 (Hashtbl.find_opt cnt n));
    self_by_layer = List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) layer []);
  }

let mean_span s name = Arith.ratio (s.total name) (float_of_int (s.count name))

(* Durations of each statement's read path (root less its checking). *)
let read_path_ns spans =
  let check = Hashtbl.create 1024 and is_read = Hashtbl.create 1024 in
  List.iter
    (fun (s : Arith.span) ->
      if s.name = "bench.check" then Hashtbl.replace check s.request (Arith.duration s);
      if s.name = "sqldb.exec" then Hashtbl.replace is_read s.request ())
    spans;
  List.filter_map
    (fun (s : Arith.span) ->
      if s.parent = -1 && Hashtbl.mem is_read s.request then
        Some (Arith.duration s -. Option.value ~default:0.0 (Hashtbl.find_opt check s.request))
      else None)
    spans

(* ---------------- output ---------------- *)

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_num v) unit) ms)
  ^ "}"

let json_fields fs = "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fs) ^ "}"
let str s = "\"" ^ Spans.json_escape s ^ "\""

let run_record ~kind ~extra =
  json_fields
    ([
       ("workload", str (W.name kind));
       ("trace", string_of_int !trace);
       ("seed", string_of_int !seed);
       ("started_unix_s", Printf.sprintf "%.3f" started);
       ( "derived_seeds",
         json_fields
           [
             ("data", Int64.to_string W.data_seed);
             ("queries", Int64.to_string (W.query_seed !seed));
             ("master_key", Int64.to_string (W.key_seed !seed));
             ("weak_randomness", Int64.to_string (W.edb_seed !seed));
             ("write_targets", Int64.to_string (W.shuffle_seed !seed));
           ] );
       ("cores", string_of_int (Domain.recommended_domain_count ()));
       ("ocaml", str Sys.ocaml_version);
       ("rev", str !rev);
       ("rows", string_of_int (W.rows_for kind));
       ("scheme", str (Wre.Scheme.to_string W.scheme));
       ("seconds", string_of_int !seconds);
       ("flush_policy", str "group_commit=1 (fsync on every WAL append; wre_server and wre_cli init default)");
     ]
    @ extra)

let emit ~record ~tally ~metrics =
  write_file "record.json" (record ^ "\n");
  print_endline ("# record " ^ record);
  List.iter (fun (k, v, u) -> log "%-34s %14.4f %s" k v u) metrics;
  let correct = Arith.bad tally = 0 && tally.Arith.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    tally.Arith.attempted (Arith.bad tally) (json_metrics metrics)

(* ---------------- workloads ---------------- *)

let with_pool f =
  let pool = Stdx.Task_pool.create ~domains:(Domain.recommended_domain_count ()) in
  Fun.protect ~finally:(fun () -> Stdx.Task_pool.shutdown pool) (fun () -> f pool)

let fresh name =
  rm_rf name;
  name

let server_e2e kind =
  with_pool @@ fun pool ->
  let setups =
    List.init (setup_repeats kind) (fun i ->
        let dir = fresh (Printf.sprintf "store%d" i) in
        let w, pid, settings, load, ns = setup_server kind ~pool ~dir ~keep_copy:None in
        if i < setup_repeats kind - 1 then begin
          stop_server pid;
          rm_rf dir;
          rm_rf (dir ^ ".log")
        end;
        (w, pid, settings, load, ns, dir))
  in
  let w, pid, settings, load, _, dir = List.nth setups (setup_repeats kind - 1) in
  let setup_s = Arith.median (List.map (fun (_, _, _, _, ns, _) -> ns /. 1e9) setups) in
  let mirror = W.mirror w.rows in
  let expected = expected_answers ~kind w mirror in
  let results, t0, wall = run_clients ~kind ~w ~expected in
  let final = match kind with W.Mixed_rw -> check_final_state w mirror results | _ -> Arith.tally () in
  stop_server pid;
  let tally = Arith.merge (final :: Array.to_list (Array.map (fun r -> r.tally) results)) in
  let completed = Array.fold_left (fun a r -> a + r.done_) 0 results in
  let all = List.concat_map (fun r -> r.samples) (Array.to_list results) in
  let reads = List.filter_map (fun s -> if s.read then Some s.ns else None) all in
  let writes = List.filter_map (fun s -> if s.read then None else Some s.ns) all in
  let n_reads, r50, rtail, rtail_p = latency_summary reads in
  let n_writes, w50, _, _ = latency_summary writes in
  let w95 =
    if n_writes = 0 then 0.0 else ms (Arith.percentile (Arith.sorted_of_list writes) 95.0)
  in
  let ops = windowed_ops_per_s ~t0 ~wall all in
  let record =
    run_record ~kind
      ~extra:
        [
          ("clients", string_of_int (Array.length w.lists));
          ("loop", str "closed: one outstanding statement per connection");
          ("server_settings", str ("shipped defaults apart from --dir/--socket: " ^ settings));
          ("statements", string_of_int completed);
          ("reads", string_of_int n_reads);
          ("writes", string_of_int n_writes);
          ("read_tail_percentile", json_num rtail_p);
          ( "workload_metrics",
            json_fields
              [
                ("setup_s", json_num setup_s);
                ("ops_per_s", json_num ops);
                ("read_p50_ms", json_num r50);
                ("read_p99_ms", json_num rtail);
                ("write_p50_ms", json_num w50);
                ("write_p95_ms", json_num w95);
                ("error_rate", json_num (Arith.error_rate tally));
                ("load_rows_per_s", json_num (float_of_int (Array.length w.rows) /. (load.load_ns /. 1e9)));
              ] );
        ]
  in
  rm_rf dir;
  if n_reads < 1 then fail "no reads completed";
  emit ~record ~tally
    ~metrics:
      [ ("setup_s", setup_s, "s"); ("ops_per_s", ops, "1/s"); ("p50_ms", r50, "ms"); ("tail_ms", rtail, "ms") ]

(* Each load runs in a fresh child process, as [wre_cli init] would:
   a second load in the same process would reuse the first one's heap
   and salt-cache warm-up. The child prints one line:
   "child <wall_ns> <resident_bytes_per_row> <attempted> <bad> <call_ns,...>". *)
let child = ref ""

let run_child mode =
  let w = generate W.Bulk_load in
  let dir = fresh "bulk" in
  Gc.full_major ();
  let before = rss_bytes () in
  let store, edb, wall_ns, calls =
    match mode with
    | "e2e" ->
        with_pool @@ fun pool ->
        let store, edb, load = load_store ~pool ~dir w in
        (store, edb, load.load_ns, load.chunk_ns)
    | _ ->
        let store, edb, wall_ns, _ = replay_load ~tracer:(Spans.create ~enabled:false) ~dir w in
        (store, edb, wall_ns, [])
  in
  Gc.full_major ();
  let resident = float_of_int (rss_bytes () - before) /. float_of_int (Array.length w.rows) in
  let tally = check_load edb w in
  Store.Engine.close store;
  rm_rf dir;
  Printf.printf "child %.17g %.17g %d %d %s\n%!" wall_ns resident tally.Arith.attempted
    (Arith.bad tally)
    (String.concat "," (List.map (Printf.sprintf "%.17g") calls))

type child_load = { wall : float; resident : float; calls : float list; child_tally : Arith.tally }

let spawn_child mode =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; "bulk-load"; "--seed"; string_of_int !seed; "--child"; mode; "--work-dir"; "child" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "bulk-load child (%s) failed" mode);
  let line = List.find (String.starts_with ~prefix:"child ") (String.split_on_char '\n' out) in
  Scanf.sscanf line "child %f %f %d %d %s" (fun wall resident attempted bad calls ->
      {
        wall;
        resident;
        calls = List.map float_of_string (List.filter (( <> ) "") (String.split_on_char ',' calls));
        child_tally = { Arith.attempted; failed = bad; wrong = 0 };
      })

let bulk_e2e () =
  let setups =
    List.init (setup_repeats W.Bulk_load) (fun _ ->
        snd (Stdx.Clock.time_it (fun () -> ignore (generate W.Bulk_load))))
  in
  let setup_s = Arith.median (List.map (fun ns -> ns /. 1e9) setups) in
  let rows = float_of_int (W.rows_for W.Bulk_load) in
  let t_start = Stdx.Clock.now_ns () in
  let rec loads acc =
    if List.length acc >= 3 && Stdx.Clock.now_ns () -. t_start >= float_of_int !seconds *. 1e9 then
      List.rev acc
    else loads (spawn_child "e2e" :: acc)
  in
  let runs = loads [] in
  let ops = Arith.median (List.map (fun l -> rows /. (l.wall /. 1e9)) runs) in
  let n_calls, c50, ctail, ctail_p = latency_summary (List.concat_map (fun l -> l.calls) runs) in
  let resident = Arith.median (List.map (fun l -> l.resident) runs) in
  let tally = Arith.merge (List.map (fun l -> l.child_tally) runs) in
  let record =
    run_record ~kind:W.Bulk_load
      ~extra:
        [
          ("domains", string_of_int (Domain.recommended_domain_count ()));
          ("chunk_rows", string_of_int load_chunk_rows);
          ("loads", string_of_int (List.length runs));
          ("insert_batch_calls", string_of_int n_calls);
          ("call_tail_percentile", json_num ctail_p);
          ( "workload_metrics",
            json_fields
              [
                ("setup_s", json_num setup_s);
                ("load_rows_per_s", json_num ops);
                ("resident_bytes_per_row", json_num resident);
                ("error_rate", json_num (Arith.error_rate tally));
              ] );
        ]
  in
  emit ~record ~tally
    ~metrics:
      [ ("setup_s", setup_s, "s"); ("ops_per_s", ops, "1/s"); ("p50_ms", c50, "ms"); ("tail_ms", ctail, "ms") ]

(* ---------------- traced runs ---------------- *)

let layer_metrics ~(traced : replay) ~(untraced_wall : float) ~extra =
  let s = span_sums traced.spans in
  let self_total = List.fold_left (fun a (_, v) -> a +. v) 0.0 s.self_by_layer in
  List.iter
    (fun (l, v) -> log "self %-12s %10.2f ms  %5.1f%%" l (ms v) (100.0 *. Arith.ratio v traced.wall_ns))
    s.self_by_layer;
  let per_read name = Arith.ratio (s.total name) (float_of_int traced.reads) in
  [
      ("proxy.parse_us", us (mean_span s "proxy.parse"), "us");
      ("proxy.rewrite_us", us (mean_span s "proxy.rewrite"), "us");
      ("proxy.tags_per_query", Arith.ratio (float_of_int traced.tags) (float_of_int traced.reads), "count");
      ("proxy.filter_us", us (per_read "proxy.filter"), "us");
      ("sqldb.freeze_ms", ms (Arith.ratio (s.total "sqldb.freeze") (float_of_int traced.freezes)), "ms");
      ( "sqldb.freezes_per_100_reads",
        100.0 *. Arith.ratio (float_of_int traced.freezes) (float_of_int traced.reads),
        "count" );
      ("sqldb.exec_ms", ms (mean_span s "sqldb.exec"), "ms");
      ( "sqldb.rows_examined_per_row",
        Arith.ratio (float_of_int traced.rows_examined) (float_of_int traced.rows_returned),
        "ratio" );
      ("sqldb.apply_ms", ms (mean_span s "sqldb.apply"), "ms");
      ( "edb.decrypt_us_per_row",
        us (Arith.ratio (s.total "edb.decrypt") (float_of_int traced.rows_decrypted)),
        "us" );
      ( "edb.rows_decrypted_per_read",
        Arith.ratio (float_of_int traced.rows_decrypted) (float_of_int traced.reads),
        "count" );
      ( "edb.encrypt_us_per_row",
        us (Arith.ratio (s.total "edb.encrypt") (float_of_int traced.rows_encrypted)),
        "us" );
      ("column_enc.prewarm_ms", ms (s.total "column_enc.prewarm"), "ms");
      ("wire.encode_us", us (mean_span s "wire.encode"), "us");
      ("wire.decode_us", us (mean_span s "wire.decode"), "us");
      ( "wire.response_kib",
        Arith.ratio (float_of_int traced.response_bytes) (float_of_int (traced.reads * 1024)),
        "KiB" );
      ("trace.coverage", Arith.ratio self_total traced.wall_ns, "ratio");
      ("trace.overhead", 1.0 -. Arith.ratio untraced_wall traced.wall_ns, "ratio");
  ]
  @ extra

let server_traced kind =
  with_pool @@ fun load_pool ->
  let dir = fresh "store0" in
  let base = fresh "replay_base" in
  let w, pid, settings, load, _ = setup_server kind ~pool:load_pool ~dir ~keep_copy:(Some base) in
  let mirror = W.mirror w.rows in
  let expected = expected_answers ~kind w mirror in
  let c = connect () in
  let before = server_stats c in
  let results, _, wall = run_clients ~kind ~w ~expected in
  let after = server_stats c in
  Server.Client.close c;
  let final = match kind with W.Mixed_rw -> check_final_state w mirror results | _ -> Arith.tally () in
  stop_server pid;
  let wal_bytes = file_size (Filename.concat dir "wal.bin") in
  let snapshot_bytes = file_size (Filename.concat base "snapshot.bin") in
  rm_rf dir;
  let completed = Array.fold_left (fun a r -> a + r.done_) 0 results in
  let all = List.concat_map (fun r -> r.samples) (Array.to_list results) in
  let reads = List.filter_map (fun s -> if s.read then Some s.ns else None) all in
  let n_writes = List.length all - List.length reads in
  let _, client_p50, _, _ = latency_summary reads in
  let order = List.filteri (fun i _ -> i < replay_cap) (interleave w results) in
  (* The daemon's pool: wre_server's default --domains. *)
  Stdx.Task_pool.with_pool ~domains:4 @@ fun pool ->
  let replay enabled =
    let d = fresh (if enabled then "replay_traced" else "replay_plain") in
    copy_dir base d;
    let r = replay_statements ~tracer:(Spans.create ~enabled) ~pool ~dir:d ~w order in
    rm_rf d;
    r
  in
  let plain = replay false in
  let traced = replay true in
  rm_rf base;
  write_file (Printf.sprintf "spans-%s-%d.jsonl" (W.name kind) !seed) (Spans.to_jsonl traced.spans);
  let path_p50 = ms (Arith.median (match read_path_ns traced.spans with [] -> [ 0.0 ] | l -> l)) in
  let d = delta before after in
  let stmts = float_of_int completed in
  let salt_hits = d "column_enc.salt_cache_hits_total" and salt_misses = d "column_enc.salt_cache_misses_total" in
  let metrics =
    layer_metrics ~traced ~untraced_wall:plain.wall_ns
      ~extra:
        [
          ("server.admission_wait_ms", ms (Option.value ~default:0.0 (List.assoc_opt "server.admission_wait_ns" after.p50s)), "ms");
          ("server.batch_size_mean", Arith.ratio stmts (d "server.batches_total"), "count");
          ("server.unattributed_ms", client_p50 -. path_p50, "ms");
          ("column_enc.salt_cache_hit_ratio", Arith.ratio salt_hits (salt_hits +. salt_misses), "ratio");
          ( "crypto.prf_calls_per_row",
            Arith.ratio
              (float_of_int (traced.tags + (traced.rows_encrypted * List.length W.columns)))
              (float_of_int (traced.rows_decrypted + traced.rows_encrypted)),
            "count" );
          ("crypto.aes_blocks_per_row", mean_aes_blocks w.rows, "count");
          ("store.wal_fsyncs_per_write", Arith.ratio (d "store.wal_fsyncs_total") (float_of_int n_writes), "count");
          ("store.wal_bytes_per_row", Arith.ratio (float_of_int wal_bytes) (float_of_int n_writes), "B");
          ("store.checkpoint_s", load.checkpoint_ns /. 1e9, "s");
          ("store.snapshot_bytes_per_row", Arith.ratio (float_of_int snapshot_bytes) (float_of_int (Array.length w.rows)), "B");
        ]
  in
  let tally =
    Arith.merge
      (final :: plain.replay_tally :: traced.replay_tally :: Array.to_list (Array.map (fun r -> r.tally) results))
  in
  let record =
    run_record ~kind
      ~extra:
        [
          ("server_settings", str ("shipped defaults apart from --dir/--socket: " ^ settings));
          ("replayed_statements", string_of_int traced.statements);
          ("client_statements", string_of_int completed);
          ("client_wall_s", json_num (wall /. 1e9));
          ("replay_pool_domains", "4");
        ]
  in
  emit ~record ~tally ~metrics

let bulk_traced () =
  let plain = spawn_child "replay" in
  let w = generate W.Bulk_load in
  let dir = fresh "bulk_traced" in
  let tracer = Spans.create ~enabled:true in
  let store, edb, wall_ns, wal_bytes = replay_load ~tracer ~dir w in
  let snapshot_bytes = file_size (Filename.concat dir "snapshot.bin") in
  let tally = check_load edb w in
  Store.Engine.close store;
  rm_rf dir;
  let spans = Spans.spans tracer and plain_wall = plain.wall and plain_tally = plain.child_tally in
  write_file (Printf.sprintf "spans-bulk-load-%d.jsonl" !seed) (Spans.to_jsonl spans);
  let n = Array.length w.rows in
  let c name = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter name)) in
  let traced =
    {
      spans;
      wall_ns;
      statements = 0;
      reads = 0;
      writes = List.length (chunks w.rows);
      rows_decrypted = 0;
      rows_encrypted = n;
      tags = 0;
      freezes = 0;
      response_bytes = 0;
      rows_examined = 0;
      rows_returned = 0;
      replay_tally = tally;
    }
  in
  let s = span_sums spans in
  let metrics =
    layer_metrics ~traced ~untraced_wall:plain_wall
      ~extra:
        [
          ("server.admission_wait_ms", 0.0, "ms");
          ("server.batch_size_mean", 0.0, "count");
          ("server.unattributed_ms", 0.0, "ms");
          ( "column_enc.salt_cache_hit_ratio",
            Arith.ratio (c "column_enc.salt_cache_hits_total")
              (c "column_enc.salt_cache_hits_total" +. c "column_enc.salt_cache_misses_total"),
            "ratio" );
          ("crypto.prf_calls_per_row", float_of_int (List.length W.columns), "count");
          ("crypto.aes_blocks_per_row", mean_aes_blocks w.rows, "count");
          ( "store.wal_fsyncs_per_write",
            Arith.ratio (c "store.wal_fsyncs_total") (float_of_int traced.writes),
            "count" );
          ( "store.wal_bytes_per_row",
            Arith.ratio (float_of_int wal_bytes) (float_of_int n),
            "B" );
          ("store.checkpoint_s", s.total "store.checkpoint" /. 1e9, "s");
          ("store.snapshot_bytes_per_row", Arith.ratio (float_of_int snapshot_bytes) (float_of_int n), "B");
        ]
  in
  let record =
    run_record ~kind:W.Bulk_load
      ~extra:
        [
          ("chunk_rows", string_of_int load_chunk_rows);
          ("replay_domains", "1");
          ("untraced_replay_rows_per_s", json_num (float_of_int n /. (plain_wall /. 1e9)));
          ("traced_replay_rows_per_s", json_num (float_of_int n /. (wall_ns /. 1e9)));
        ]
  in
  emit ~record ~tally:(Arith.merge [ plain_tally; tally ]) ~metrics

(* ---------------- main ---------------- *)

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME read-mix | mixed-rw | bulk-load");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--server-exe", Arg.Set_string server_exe, "PATH wre_server binary");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory (created, emptied)");
      ("--rev", Arg.Set_string rev, "REV source revision recorded in the run record");
      ("--child", Arg.Set_string child, "MODE internal: one bulk-load in a fresh process (e2e|replay)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "wre_bench [options]";
  let kind =
    match List.assoc_opt !workload W.kinds with
    | Some k -> k
    | None -> fail "unknown workload %S" !workload
  in
  if !server_exe <> "" && Filename.is_relative !server_exe then
    server_exe := Filename.concat (Sys.getcwd ()) !server_exe;
  if kind <> W.Bulk_load && not (Sys.file_exists !server_exe) then fail "no wre_server at %S" !server_exe;
  rm_rf !work_dir;
  Unix.mkdir !work_dir 0o755;
  Sys.chdir !work_dir;
  match (kind, !trace) with
  | W.Bulk_load, _ when !child <> "" -> run_child !child
  | W.Bulk_load, 0 -> bulk_e2e ()
  | W.Bulk_load, _ -> bulk_traced ()
  | k, 0 -> server_e2e k
  | k, _ -> server_traced k
