(* lint: guarded-by lock — the session registry, thread lists and sid
   counter are only touched with [lock] held; cross-thread shutdown is
   signalled through the [stopping] atomic. *)

let server_name = "wre_server/1"

let m_sessions = Obs.Metrics.counter "server.sessions_total"
let m_active = Obs.Metrics.gauge "server.sessions_active"
let m_requests = Obs.Metrics.counter "server.requests_total"
let m_rejected = Obs.Metrics.counter "server.frames_rejected_total"
let m_makespan = Obs.Metrics.counter "server.batch_makespan_sim_ns_total"

type config = {
  socket_path : string;
  domains : int;
  window_ns : float;
  batch_max : int;
  backlog : int;
}

let default_config ~socket_path =
  { socket_path; domains = 4; window_ns = 1e6; batch_max = 256; backlog = 128 }

(* A job is one decoded Query plus the session's proxy; the reply is a
   ready-to-send wire response. *)
type job = Wre.Proxy.t * string

type t = {
  cfg : config;
  engine : Store.Engine.t;
  edbs : Wre.Encrypted_db.t list;  (** every encrypted table in the store *)
  pool : Stdx.Task_pool.t;
  adm : (job, Wire.response) Admission.t;
  listener : Unix.file_descr;
  stopping : bool Atomic.t;
  lock : Mutex.t;
  sessions : (int64, Unix.file_descr) Hashtbl.t;
  mutable next_sid : int64;
  mutable accept_thread : Thread.t option;
  mutable session_threads : Thread.t list;
}

let response_of_result = function
  | Ok (q : Wre.Proxy.query_result) ->
      Wire.Result
        { Wire.columns = q.columns; rows = q.rows; affected = q.affected; server_rows = q.server_rows }
  | Error m -> Wire.Failed { message = m }

let sim_ns_of = function
  | Ok { Wre.Proxy.exec = Some e; _ } -> e.Sqldb.Executor.stats.Sqldb.Pager.sim_ns
  | Ok { Wre.Proxy.join_exec = Some j; _ } -> j.Sqldb.Join.stats.Sqldb.Pager.sim_ns
  | _ -> 0.0

(* Execute one coalesced read batch: fan the queries over the pool.
   Each query freezes its own view, which costs O(number of indexes);
   admission never runs a write inside a read batch, so every query of
   the batch sees the same epoch. The modeled cost of the batch is its
   critical path — the largest per-domain sum of simulated storage
   nanoseconds — which the exp_server benchmark divides into
   queries/second. *)
let run_read_batch pool payloads =
  let out =
    Stdx.Task_pool.parallel_init pool (Array.length payloads) (fun i ->
        let proxy, sql = payloads.(i) in
        let r = Wre.Proxy.execute proxy sql in
        (response_of_result r, (Domain.self () :> int), sim_ns_of r))
  in
  let busy = Hashtbl.create 8 in
  Array.iter
    (fun (_, d, s) ->
      Hashtbl.replace busy d (s +. Option.value ~default:0.0 (Hashtbl.find_opt busy d)))
    out;
  let makespan = Hashtbl.fold (fun _ s acc -> Float.max s acc) busy 0.0 in
  Obs.Metrics.add m_makespan (int_of_float makespan);
  Array.map (fun (r, _, _) -> r) out

let run_mutation (proxy, sql) =
  let r = Wre.Proxy.execute proxy sql in
  Obs.Metrics.add m_makespan (int_of_float (sim_ns_of r));
  response_of_result r

let classify sql =
  match Sqldb.Sql.parse sql with
  (* A join is one read job: it freezes its own epoch-consistent pair
     of views inside the batch, like any other snapshot read. *)
  | Ok (Sqldb.Sql.Select _ | Sqldb.Sql.Select_join _) -> Ok Admission.Read
  | Ok _ -> Ok Admission.Mutate
  | Error e -> Error e

let handle_request t sid proxy req =
  Obs.Metrics.incr m_requests;
  match req with
  | Wire.Hello _ ->
      Some
        (Wire.Welcome
           {
             session_id = sid;
             server = server_name;
             tables = Store.Engine.encrypted_names t.engine;
           })
  | Wire.Ping -> Some Wire.Pong
  | Wire.Stats -> Some (Wire.Stats_reply { text = Obs.Metrics.render () })
  | Wire.Quit -> None
  | Wire.Query { sql } ->
      Some
        (match classify sql with
        | Error e -> Wire.Failed { message = e }
        | Ok kind -> (
            match Admission.submit t.adm kind (proxy, sql) with
            | r -> r
            | exception Invalid_argument _ -> Wire.Failed { message = "server is shutting down" }))

let rec session_loop t sid proxy fd =
  match Wire.recv_request fd with
  | Error `Eof -> ()
  | Error (`Err e) ->
      (* Reject this session only; a best-effort explanation, then
         close. Everyone else keeps being served. *)
      Obs.Metrics.incr m_rejected;
      (try Wire.send_response fd (Wire.Failed { message = Wire.error_string e })
       with Unix.Unix_error _ -> ())
  | Ok req -> (
      match handle_request t sid proxy req with
      | None -> ( try Wire.send_response fd Wire.Bye with Unix.Unix_error _ -> ())
      | Some resp -> (
          match Wire.send_response fd resp with
          | () -> session_loop t sid proxy fd
          | exception Unix.Unix_error _ -> ()))

let run_session t sid fd =
  let proxy = Wre.Proxy.create_multi t.edbs in
  Fun.protect
    ~finally:(fun () ->
      (* Remove-then-close under the registry lock, so [stop]'s
         shutdown sweep can never hit a recycled descriptor. *)
      Mutex.lock t.lock;
      Hashtbl.remove t.sessions sid;
      Obs.Metrics.set_gauge m_active (Hashtbl.length t.sessions);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.unlock t.lock)
    (fun () -> try session_loop t sid proxy fd with Unix.Unix_error _ -> ())

let accept_loop t =
  let running = ref true in
  while !running do
    match Unix.accept ~cloexec:true t.listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if Atomic.get t.stopping then running := false
    | exception Unix.Unix_error _ -> if Atomic.get t.stopping then running := false
    | fd, _ ->
        if Atomic.get t.stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          running := false)
        else (
          Mutex.lock t.lock;
          let sid = t.next_sid in
          t.next_sid <- Int64.add t.next_sid 1L;
          Hashtbl.replace t.sessions sid fd;
          Obs.Metrics.incr m_sessions;
          Obs.Metrics.set_gauge m_active (Hashtbl.length t.sessions);
          t.session_threads <- Thread.create (fun () -> run_session t sid fd) () :: t.session_threads;
          Mutex.unlock t.lock)
  done

let start cfg engine =
  match Store.Engine.encrypted_names engine with
  | [] -> Error "store has no encrypted tables to serve"
  | names ->
      let edbs = List.map (fun n -> Option.get (Store.Engine.encrypted engine n)) names in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.bind listener (Unix.ADDR_UNIX cfg.socket_path) with
      | () -> ()
      | exception e ->
          Unix.close listener;
          raise e);
      Unix.listen listener cfg.backlog;
      let pool = Stdx.Task_pool.create ~domains:(max 1 cfg.domains) in
      let adm =
        Admission.create ~window_ns:cfg.window_ns ~batch_max:cfg.batch_max
          ~run_batch:(run_read_batch pool) ~run_write:run_mutation
          ~on_exn:(fun m -> Wire.Failed { message = m })
          ()
      in
      let t =
        {
          cfg;
          engine;
          edbs;
          pool;
          adm;
          listener;
          stopping = Atomic.make false;
          lock = Mutex.create ();
          sessions = Hashtbl.create 64;
          next_sid = 1L;
          accept_thread = None;
          session_threads = [];
        }
      in
      t.accept_thread <- Some (Thread.create accept_loop t);
      Ok t

let socket_path t = t.cfg.socket_path

let stop t =
  if not (Atomic.exchange t.stopping true) then (
    (* Wake the blocked accept with a throwaway connection, then join
       it before touching the listener. *)
    (try
       let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path) with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with
    | Some th ->
        Thread.join th;
        t.accept_thread <- None
    | None -> ());
    (* Kick every live session off its blocking read; each session
       thread closes its own fd on the way out. *)
    Mutex.lock t.lock;
    Hashtbl.iter
      (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.sessions;
    let threads = t.session_threads in
    Mutex.unlock t.lock;
    List.iter Thread.join threads;
    Admission.stop t.adm;
    Stdx.Task_pool.shutdown t.pool;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
