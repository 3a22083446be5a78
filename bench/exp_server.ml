(* Multi-client server throughput: closed-loop clients against a live
   wre_server daemon over a Unix-domain socket, comparing batch-size-1
   admission (every read is its own epoch, one domain) against batched
   admission (reads arriving within the window share one freeze and fan
   over the pool).

   The container pins the build to one core, so wall-clock cannot show
   the fan-out win; as in exp_concurrency the headline metric is the
   simulated storage clock. The daemon already accounts it per batch:
   [server.batch_makespan_sim_ns_total] accumulates each batch's
   critical path (max per-domain busy sum), so modeled throughput is
   queries / total makespan. Client-side wall latency per query gives
   the p50/p99 the paper-style tables want.

   Emits BENCH_server.json, including the [batched_beats_batch1]
   verdict CI greps for. *)

let json_obj = Bench_util.json_obj
let client_counts = [ 10; 100; 1000 ]
let queries_per_run = 240

type config = { label : string; domains : int; window_ns : float; batch_max : int }

let configs =
  [
    { label = "batch1"; domains = 1; window_ns = 0.0; batch_max = 1 };
    { label = "batched"; domains = 4; window_ns = 2e6; batch_max = 256 };
  ]

type run_result = {
  clients : int;
  config : string;
  wall_qps : float;
  modeled_qps : float;
  p50_ms : float;
  p99_ms : float;
  batches : int;
  mean_batch : float;
}

(* One closed-loop client: connect, run its share of the query list
   (one outstanding request at a time), record per-query wall ns. *)
let client_thread ~socket_path ~sqls ~latencies ~failures ~slot () =
  match Server.Client.connect ~socket_path () with
  | Error _ -> Atomic.incr failures
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          List.iteri
            (fun i sql ->
              let r, ns = Stdx.Clock.time_it (fun () -> Server.Client.query c sql) in
              (match r with Ok _ -> () | Error _ -> Atomic.incr failures);
              latencies.(slot + i) <- ns)
            sqls)

let percentile_ms sorted p =
  if Array.length sorted = 0 then 0.0
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int (Array.length sorted))) - 1 in
    sorted.(max 0 (min (Array.length sorted - 1) idx)) /. 1e6

let run_config ~store ~dir ~sqls ~clients cfg =
  let socket_path = Filename.concat dir (Printf.sprintf "bench_%s_%d.sock" cfg.label clients) in
  let daemon_cfg =
    {
      Server.Daemon.socket_path;
      domains = cfg.domains;
      window_ns = cfg.window_ns;
      batch_max = cfg.batch_max;
      backlog = 1024;
    }
  in
  match Server.Daemon.start daemon_cfg store with
  | Error e -> failwith ("exp_server: " ^ e)
  | Ok d ->
      Fun.protect
        ~finally:(fun () -> Server.Daemon.stop d)
        (fun () ->
          let per_client = max 1 (queries_per_run / clients) in
          let total = per_client * clients in
          (* Every client gets exactly [per_client] statements, cycling
             the query list so totals stay exact at any client count. *)
          let sqls_arr = Array.of_list sqls in
          let share i =
            List.init per_client (fun j ->
                sqls_arr.(((i * per_client) + j) mod Array.length sqls_arr))
          in
          let latencies = Array.make total 0.0 in
          let failures = Atomic.make 0 in
          Obs.Metrics.reset_all ();
          let (), wall_ns =
            Stdx.Clock.time_it (fun () ->
                let threads =
                  List.init clients (fun i ->
                      Thread.create
                        (client_thread ~socket_path ~sqls:(share i) ~latencies ~failures
                           ~slot:(i * per_client))
                        ())
                in
                List.iter Thread.join threads)
          in
          if Atomic.get failures > 0 then
            failwith (Printf.sprintf "exp_server: %d client failures" (Atomic.get failures));
          let makespan_ns =
            float_of_int
              (Obs.Metrics.counter_value
                 (Obs.Metrics.counter "server.batch_makespan_sim_ns_total"))
          in
          let batches =
            Obs.Metrics.counter_value (Obs.Metrics.counter "server.batches_total")
          in
          let batch_summary = Obs.Metrics.summarize (Obs.Metrics.histogram "server.batch_size") in
          let sorted = Array.copy latencies in
          Array.sort compare sorted;
          {
            clients;
            config = cfg.label;
            wall_qps = float_of_int total /. (wall_ns /. 1e9);
            modeled_qps = float_of_int total /. (makespan_ns /. 1e9);
            p50_ms = percentile_ms sorted 50.0;
            p99_ms = percentile_ms sorted 99.0;
            batches;
            mean_batch = batch_summary.Obs.Metrics.mean_ns (* histogram reused for sizes *);
          })

let run ~rows:requested ~n_queries:_ () =
  let n = min requested 20_000 in
  Bench_util.heading
    (Printf.sprintf "Server: batched admission vs batch-size-1, %d rows, clients %s" n
       (String.concat "/" (List.map string_of_int client_counts)));
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wre_bench_server.%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) @@ fun () ->
  let rows = Bench_util.generate_rows n in
  let dist_of = Bench_util.dist_of_rows rows in
  let store = Store.Engine.open_dir ~dir:(Filename.concat dir "store") ~group_commit:4096 () in
  Fun.protect ~finally:(fun () -> Store.Engine.close store) @@ fun () ->
  let edb =
    Store.Engine.create_encrypted store ~name:"main" ~plain_schema:Sparta.Generator.schema
      ~key_column:"id" ~encrypted_columns:Bench_util.enc_columns
      ~kind:(Wre.Scheme.Poisson 1000.0)
      ~master:(Crypto.Keys.generate (Stdx.Prng.create 1L))
      ~dist_of ~seed:2L ()
  in
  ignore (Wre.Encrypted_db.insert_batch edb rows);
  Store.Engine.checkpoint store;
  let sqls =
    List.map
      (fun (q : Sparta.Query_gen.query) ->
        Printf.sprintf "SELECT * FROM main WHERE %s = '%s'" q.column q.value)
      (Bench_util.make_queries ~dist_of ~n:queries_per_run)
  in
  (* Warm pass: fill the buffer pool once so every measured config pays
     identical storage charges (same protocol as exp_concurrency). *)
  let proxy = Wre.Proxy.create edb in
  List.iter (fun sql -> ignore (Wre.Proxy.execute proxy sql)) sqls;
  let results =
    List.concat_map
      (fun clients ->
        List.map (fun cfg -> run_config ~store ~dir ~sqls ~clients cfg) configs)
      client_counts
  in
  let t =
    Stdx.Table_fmt.create
      [ "clients"; "config"; "modeled qps"; "wall qps"; "p50 (ms)"; "p99 (ms)"; "batches"; "mean batch" ]
  in
  List.iter
    (fun r ->
      Stdx.Table_fmt.add_row t
        [
          string_of_int r.clients;
          r.config;
          Printf.sprintf "%.1f" r.modeled_qps;
          Printf.sprintf "%.1f" r.wall_qps;
          Printf.sprintf "%.2f" r.p50_ms;
          Printf.sprintf "%.2f" r.p99_ms;
          string_of_int r.batches;
          Printf.sprintf "%.1f" r.mean_batch;
        ])
    results;
  Stdx.Table_fmt.print t;
  let find label clients =
    List.find (fun r -> r.config = label && r.clients = clients) results
  in
  let batched_beats_batch1 =
    List.for_all
      (fun clients -> (find "batched" clients).modeled_qps > (find "batch1" clients).modeled_qps)
      (List.filter (fun c -> c >= 100) client_counts)
  in
  let metrics =
    List.concat_map
      (fun r ->
        let k suffix = Printf.sprintf "%s_%s_%dc" suffix r.config r.clients in
        [
          (k "modeled_qps", Printf.sprintf "%.2f" r.modeled_qps);
          (k "wall_qps", Printf.sprintf "%.2f" r.wall_qps);
          (k "p50_ms", Printf.sprintf "%.3f" r.p50_ms);
          (k "p99_ms", Printf.sprintf "%.3f" r.p99_ms);
          (k "batches", string_of_int r.batches);
          (k "mean_batch_size", Printf.sprintf "%.2f" r.mean_batch);
        ])
      results
    @ [ ("batched_beats_batch1", if batched_beats_batch1 then "true" else "false") ]
  in
  let json =
    json_obj
      [
        ("name", "\"server\"");
        ( "config",
          json_obj
            [
              ("rows", string_of_int n);
              ("queries_per_run", string_of_int queries_per_run);
              ("scheme", "\"poisson-1000\"");
              ( "client_counts",
                "[" ^ String.concat ", " (List.map string_of_int client_counts) ^ "]" );
              ("batch1", "\"domains=1 window=0 batch_max=1\"");
              ("batched", "\"domains=4 window=2ms batch_max=256\"");
              ("cores", string_of_int (Domain.recommended_domain_count ()));
            ] );
        ("metrics", json_obj metrics);
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_server.json" json;
  Printf.printf "wrote BENCH_server.json (batched beats batch1 at >=100 clients: %b)\n"
    batched_beats_batch1
