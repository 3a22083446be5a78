(* Encrypted equi-join experiment: tag-bucket hash join vs the naive
   "ship both tables" deployment (decrypt everything client-side, then
   hash-join plaintext), across the five schemes.

   The workload joins a large table [a] against a small table [b] whose
   join-column support is a narrow slice of [a]'s — the selective-join
   regime where server-side bucket resolution pays: the server touches
   only rows carrying shared-support tags, while the baseline decrypts
   both tables whole.

   Also measures what the join leaks: per-bucket candidate-pair counts
   are the join-degree distribution, attacked with rank matching
   against perfect auxiliary knowledge (Attacks.Join_leakage — the
   upper bound on this adversary).

   Emits BENCH_join.json with the [join_beats_client_side] gate (CI
   smoke: the tag join must beat the baseline for the flagship
   poisson-1000 scheme). *)

open Sqldb

let json_obj = Bench_util.json_obj

let schemes =
  [
    Wre.Scheme.Det;
    Wre.Scheme.Fixed 10;
    Wre.Scheme.Proportional 1000;
    Wre.Scheme.Poisson 1000.0;
    Wre.Scheme.Bucketized 1000.0;
  ]

let join_schema =
  Schema.create
    [
      { Schema.name = "id"; ty = Value.TInt; nullable = false };
      { Schema.name = "lname"; ty = Value.TText; nullable = false };
    ]

(* Shared support: left ranks [lo, lo+width) of the lname distribution.
   Tail-rank values keep the join selective (the regime the tag join is
   built for) while their counts still vary enough for the leakage
   attack to have something to rank. *)
let shared_lo = 100
let shared_width = 50

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 |> max 0))

let time_runs iters f =
  let walls = Array.init iters (fun _ -> snd (Stdx.Clock.time_it f)) in
  Array.sort compare walls;
  (percentile walls 50.0, percentile walls 99.0)

type row_result = {
  scheme : string;
  domains : int;
  candidate_pairs : int;
  result_rows : int;
  p50_ms : float;
  p99_ms : float;
  base_p50_ms : float;
  leak : Attacks.Join_leakage.t;
}

let run_scheme ~kind ~left_rows ~right_rows ~iters =
  let db = Database.create () in
  let master = Crypto.Keys.generate (Stdx.Prng.create 1L) in
  let dist_a = Dist.Empirical.of_values (Seq.map (fun (r : Value.t array) ->
      match r.(1) with Value.Text s -> s | _ -> assert false)
      (Array.to_seq left_rows))
  in
  let dist_b = Dist.Empirical.of_values (Seq.map (fun (r : Value.t array) ->
      match r.(1) with Value.Text s -> s | _ -> assert false)
      (Array.to_seq right_rows))
  in
  let mk name dist rows =
    let edb =
      Wre.Encrypted_db.create ~db ~name ~plain_schema:join_schema ~key_column:"id"
        ~encrypted_columns:[ "lname" ] ~kind ~master ~dist_of:(fun _ -> dist) ~seed:2L ()
    in
    ignore (Wre.Encrypted_db.insert_batch edb rows);
    edb
  in
  let ea = mk "a" dist_a left_rows in
  let eb = mk "b" dist_b right_rows in
  let proxy = Wre.Proxy.create_multi [ ea; eb ] in
  let sql = "SELECT * FROM a JOIN b ON a.lname = b.lname" in
  let join_at domains =
    if domains = 1 then fun () -> Result.get_ok (Wre.Proxy.execute proxy sql)
    else fun () ->
      Stdx.Task_pool.with_pool ~domains (fun pool ->
          Result.get_ok (Wre.Proxy.execute ~pool proxy sql))
  in
  let reference = join_at 1 () in
  let jr = Option.get reference.Wre.Proxy.join_exec in
  (* Ship-both-tables baseline: full decrypt of both tables through the
     proxy, then a plaintext hash join client-side. *)
  let baseline () =
    let fetch t = (Result.get_ok (Wre.Proxy.execute proxy ("SELECT * FROM " ^ t))).Wre.Proxy.rows in
    let ra = fetch "a" and rb = fetch "b" in
    let h = Hashtbl.create 1024 in
    List.iter (fun (r : Value.t array) -> Hashtbl.add h r.(1) r) rb;
    List.fold_left
      (fun acc (r : Value.t array) -> acc + List.length (Hashtbl.find_all h r.(1)))
      0 ra
  in
  let base_n = baseline () in
  assert (base_n = List.length reference.Wre.Proxy.rows);
  let base_p50, _ = time_runs (max 3 (iters / 3)) (fun () -> ignore (baseline () : int)) in
  (* Leakage: observed per-bucket candidate counts vs ground-truth
     bucket plaintexts, auxiliary model = the true per-plaintext degree
     products (strongest aux: the attacker knows both distributions). *)
  let j =
    match Sql.parse sql with Ok (Sql.Select_join j) -> j | _ -> assert false
  in
  let buckets = Result.get_ok (Wre.Proxy.rewrite_join proxy j) in
  let actual = Array.map (fun (m, _, _) -> m) buckets in
  let aux =
    Array.map (fun m -> (m, Dist.Empirical.count dist_a m * Dist.Empirical.count dist_b m)) actual
  in
  let leak = Attacks.Join_leakage.measure ~observed:jr.Join.bucket_pairs ~actual ~aux in
  List.map
    (fun domains ->
      let p50, p99 = time_runs iters (fun () -> ignore (join_at domains () : Wre.Proxy.query_result)) in
      {
        scheme = Wre.Scheme.to_string kind;
        domains;
        candidate_pairs = Array.length jr.Join.pairs;
        result_rows = List.length reference.Wre.Proxy.rows;
        p50_ms = p50 /. 1e6;
        p99_ms = p99 /. 1e6;
        base_p50_ms = base_p50 /. 1e6;
        leak;
      })
    [ 1; 4 ]

let run ~rows () =
  (* Join cost grows with candidate pairs (degree products), not rows;
     cap the scale so the all-schemes sweep stays a smoke-sized run. *)
  let n = min rows 20_000 in
  if n < rows then Printf.printf "(join experiment capped at %d left rows)\n" n;
  Bench_util.heading
    (Printf.sprintf "Encrypted equi-join: tag-bucket join vs ship-both-tables (%d x %d rows)" n
       (n / 10));
  let gen = Sparta.Generator.create ~seed:Bench_util.data_seed in
  let lnames =
    Array.of_seq
      (Seq.map (fun r -> Sparta.Generator.column_string r ~column:"lname")
         (Sparta.Generator.rows gen ~n))
  in
  let left_rows =
    Array.mapi (fun i m -> [| Value.Int (Int64.of_int i); Value.Text m |]) lnames
  in
  (* Right side: rows drawn only from the shared slice of the left
     support, so the join is selective. *)
  let support = Dist.Empirical.support (Dist.Empirical.of_values (Array.to_seq lnames)) in
  let shared =
    Array.sub support (min shared_lo (Array.length support - 1))
      (min shared_width (Array.length support - shared_lo))
  in
  let g = Stdx.Prng.create 7L in
  let right_rows =
    Array.init (n / 10) (fun i ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text shared.(Stdx.Prng.int g (Array.length shared));
        |])
  in
  let results =
    List.concat_map (fun kind -> run_scheme ~kind ~left_rows ~right_rows ~iters:9) schemes
  in
  let t =
    Stdx.Table_fmt.create
      [
        "scheme"; "domains"; "cand pairs"; "rows"; "join p50 (ms)"; "join p99 (ms)";
        "ship-both p50 (ms)"; "leak acc"; "leak pair-rec"; "leak l1";
      ]
  in
  List.iter
    (fun r ->
      Stdx.Table_fmt.add_row t
        [
          r.scheme;
          string_of_int r.domains;
          string_of_int r.candidate_pairs;
          string_of_int r.result_rows;
          Printf.sprintf "%.2f" r.p50_ms;
          Printf.sprintf "%.2f" r.p99_ms;
          Printf.sprintf "%.2f" r.base_p50_ms;
          Printf.sprintf "%.3f" r.leak.Attacks.Join_leakage.bucket_accuracy;
          Printf.sprintf "%.3f" r.leak.Attacks.Join_leakage.pair_recovery;
          Printf.sprintf "%.3f" r.leak.Attacks.Join_leakage.l1_distance;
        ])
    results;
  Stdx.Table_fmt.print t;
  let flagship =
    List.find (fun r -> r.scheme = "poisson-1000" && r.domains = 1) results
  in
  let join_beats_client_side = flagship.p50_ms < flagship.base_p50_ms in
  let metrics =
    List.concat_map
      (fun r ->
        let k suffix = Printf.sprintf "%s_%s_%dd" suffix r.scheme r.domains in
        [
          (k "join_qps", Printf.sprintf "%.2f" (1e3 /. r.p50_ms));
          (k "join_p50_ms", Printf.sprintf "%.3f" r.p50_ms);
          (k "join_p99_ms", Printf.sprintf "%.3f" r.p99_ms);
          (k "ship_both_p50_ms", Printf.sprintf "%.3f" r.base_p50_ms);
          (k "candidate_pairs", string_of_int r.candidate_pairs);
          (k "result_rows", string_of_int r.result_rows);
          (k "leak_bucket_accuracy", Printf.sprintf "%.4f" r.leak.Attacks.Join_leakage.bucket_accuracy);
          (k "leak_pair_recovery", Printf.sprintf "%.4f" r.leak.Attacks.Join_leakage.pair_recovery);
          (k "leak_degree_l1", Printf.sprintf "%.4f" r.leak.Attacks.Join_leakage.l1_distance);
        ])
      results
    @ [ ("join_beats_client_side", if join_beats_client_side then "true" else "false") ]
  in
  let json =
    json_obj
      [
        ("name", "\"join\"");
        ( "config",
          json_obj
            [
              ("left_rows", string_of_int n);
              ("right_rows", string_of_int (n / 10));
              ("shared_support", string_of_int (Array.length shared));
              ("on_column", "\"lname\"");
              ("baseline", "\"ship both tables, decrypt all, client hash join\"");
            ] );
        ("metrics", json_obj metrics);
      ]
  in
  Bench_util.write_bench_json ~path:"BENCH_join.json" json;
  Printf.printf "wrote BENCH_join.json (tag join beats ship-both under poisson-1000: %b)\n"
    join_beats_client_side
