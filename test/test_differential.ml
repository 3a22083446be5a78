(* Differential oracle for the parallel snapshot-read query path.

   Every seeded random SQL workload is executed three ways — against a
   plaintext Sqldb reference, through the sequential encrypted proxy,
   and through the parallel snapshot-read proxy — and all three must
   agree, for every scheme:

   - SELECT without LIMIT: identical row multisets across the three;
   - SELECT with LIMIT n: the encrypted answer is a sub-multiset of the
     full plaintext match set with exactly [min n |full|] rows, and the
     parallel answer equals the sequential one row-for-row (same rows,
     same order — the byte-identity contract);
   - INSERT / UPDATE / DELETE: identical affected counts, applied to
     both sides so later statements diverge immediately if a mutation
     corrupted either.

   A failing workload's seed is persisted to corpus/ via the crash-safe
   store writer; the corpus suite replays every committed seed file so
   past failures stay fixed. Knobs: WRE_SEED (master seed), WRE_DOMAINS
   (comma list, default "1,4"), WRE_ORACLE_WORKLOADS (per scheme ×
   domain count, default 200). *)

open Sqldb

let schemes =
  [
    Wre.Scheme.Det;
    Wre.Scheme.Fixed 4;
    Wre.Scheme.Proportional 100;
    Wre.Scheme.Poisson 80.0;
    Wre.Scheme.Bucketized 80.0;
  ]

let plain_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "city"; ty = TText; nullable = false };
      { name = "age"; ty = TInt; nullable = false };
    ]

let names = [| "ann"; "bob"; "cat"; "dan"; "eve"; "fay"; "gus"; "hal" |]
let cities = [| "pdx"; "sea"; "nyc"; "lax"; "chi" |]

(* Skewed pick (min of two uniforms): low indexes are far likelier, so
   the per-value frequencies the salt allocators divide up are uneven
   like real data. *)
let pick prng arr =
  let n = Array.length arr in
  arr.(min (Stdx.Prng.int prng n) (Stdx.Prng.int prng n))

let n_rows = 48
let n_statements = 6

type targets = {
  plain : Database.t;
  proxy : Wre.Proxy.t;
  next_id : int ref;
  p_names : string array;  (** names present in the load, hence profiled *)
  p_cities : string array;
}

(* The encrypted side only accepts plaintexts from the profiled
   distribution (fallback [`Reject]), so the workload must draw its
   searchable values from what the initial load actually contained —
   a rare universe value can miss a 48-row sample entirely. *)
let present rows idx universe =
  Array.of_list
    (List.filter
       (fun v -> List.exists (fun r -> r.(idx) = Value.Text v) rows)
       (Array.to_list universe))

let build ~kind ~seed =
  let prng = Stdx.Prng.create seed in
  let rows =
    List.init n_rows (fun i ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text (pick prng names);
          Value.Text (pick prng cities);
          Value.Int (Int64.of_int (18 + Stdx.Prng.int prng 50));
        |])
  in
  let plain = Database.create () in
  let pt = Database.create_table plain ~name:"people" ~schema:plain_schema in
  List.iter (fun r -> ignore (Table.insert pt r)) rows;
  ignore (Table.create_index pt ~column:"name");
  ignore (Table.create_index pt ~column:"city");
  let enc_db = Database.create () in
  let dist_of =
    Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ] (List.to_seq rows)
  in
  let master = Crypto.Keys.of_raw ~k0:(String.make 16 'd') ~k1:(String.make 32 'f') in
  let edb =
    Wre.Encrypted_db.create ~db:enc_db ~name:"people" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ] ~kind ~master ~dist_of
      ~seed:(Int64.logxor seed 0x5eedL) ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
  ( {
      plain;
      proxy = Wre.Proxy.create edb;
      next_id = ref n_rows;
      p_names = present rows 1 names;
      p_cities = present rows 2 cities;
    },
    prng )

(* ---------------- Workload generation ---------------- *)

type stmt =
  | Select of { projection : string; where : string option; limit : int option }
  | Mutation of string

let gen_where t prng =
  let atom () =
    match Stdx.Prng.int prng 8 with
    | 0 -> Printf.sprintf "name = '%s'" (pick prng t.p_names)
    | 1 -> Printf.sprintf "city = '%s'" (pick prng t.p_cities)
    | 2 ->
        let a = Stdx.Prng.int prng 60 in
        Printf.sprintf "id BETWEEN %d AND %d" a (a + Stdx.Prng.int prng 20)
    | 3 -> Printf.sprintf "age >= %d" (18 + Stdx.Prng.int prng 50)
    | 4 -> Printf.sprintf "name IN ('%s', '%s')" (pick prng t.p_names) (pick prng t.p_names)
    | 5 -> Printf.sprintf "id < %d" (Stdx.Prng.int prng 70)
    | 6 -> Printf.sprintf "age > %d" (18 + Stdx.Prng.int prng 50)
    | _ -> Printf.sprintf "NOT city = '%s'" (pick prng t.p_cities)
  in
  match Stdx.Prng.int prng 4 with
  | 0 -> atom ()
  | 1 -> Printf.sprintf "%s AND %s" (atom ()) (atom ())
  | 2 -> Printf.sprintf "%s OR %s" (atom ()) (atom ())
  | _ -> Printf.sprintf "(%s OR %s) AND %s" (atom ()) (atom ()) (atom ())

let gen_statement t prng =
  match Stdx.Prng.int prng 10 with
  | 0 ->
      let id = !(t.next_id) in
      incr t.next_id;
      Mutation
        (Printf.sprintf "INSERT INTO people VALUES (%d, '%s', '%s', %d)" id
           (pick prng t.p_names) (pick prng t.p_cities)
           (18 + Stdx.Prng.int prng 50))
  | 1 ->
      let col, v =
        if Stdx.Prng.bool prng then ("city", pick prng t.p_cities)
        else ("name", pick prng t.p_names)
      in
      let a = Stdx.Prng.int prng 50 in
      Mutation
        (Printf.sprintf "UPDATE people SET %s = '%s' WHERE name = '%s' AND id BETWEEN %d AND %d"
           col v (pick prng t.p_names) a
           (a + Stdx.Prng.int prng 15))
  | 2 ->
      let a = Stdx.Prng.int prng 60 in
      Mutation
        (Printf.sprintf "DELETE FROM people WHERE id BETWEEN %d AND %d AND city = '%s'" a (a + 1)
           (pick prng t.p_cities))
  | _ ->
      let projection =
        match Stdx.Prng.int prng 3 with 0 -> "*" | 1 -> "id" | _ -> "id, name, age"
      in
      let where = if Stdx.Prng.int prng 10 = 0 then None else Some (gen_where t prng) in
      let limit = if Stdx.Prng.int prng 4 = 0 then Some (1 + Stdx.Prng.int prng 12) else None in
      Select { projection; where; limit }

(* ---------------- The oracle ---------------- *)

let sorted rows = List.sort compare rows

(* Sub-multiset test over sorted row lists. *)
let is_submultiset sub super =
  let rec go sub super =
    match (sub, super) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys ->
        if x = y then go xs ys else if compare y x < 0 then go sub ys else false
  in
  go (sorted sub) (sorted super)

let run_workload ~pool ~kind ~seed =
  let t, prng = build ~kind ~seed in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec steps i =
    if i >= n_statements then Ok ()
    else
      match gen_statement t prng with
      | Mutation sql -> (
          match (Sql.execute t.plain sql, Wre.Proxy.execute t.proxy sql) with
          | Ok p, Ok e ->
              if p.Sql.affected = e.Wre.Proxy.affected then steps (i + 1)
              else
                fail "affected mismatch on %S: plain %d, encrypted %d" sql p.Sql.affected
                  e.Wre.Proxy.affected
          | Error e, _ -> fail "plain error on %S: %s" sql e
          | _, Error e -> fail "encrypted error on %S: %s" sql e)
      | Select { projection; where; limit } -> (
          let base =
            Printf.sprintf "SELECT %s FROM people%s" projection
              (match where with None -> "" | Some w -> " WHERE " ^ w)
          in
          let sql =
            match limit with None -> base | Some n -> Printf.sprintf "%s LIMIT %d" base n
          in
          match
            ( Sql.execute t.plain sql,
              Wre.Proxy.execute t.proxy sql,
              Wre.Proxy.execute ~pool t.proxy sql )
          with
          | Ok p, Ok s, Ok par -> (
              if par.Wre.Proxy.rows <> s.Wre.Proxy.rows then
                fail "parallel differs from sequential on %S (%d vs %d rows)" sql
                  (List.length par.Wre.Proxy.rows)
                  (List.length s.Wre.Proxy.rows)
              else
                match limit with
                | None ->
                    if sorted s.Wre.Proxy.rows = sorted p.Sql.rows then steps (i + 1)
                    else
                      fail "row sets differ on %S: plain %d rows, encrypted %d rows" sql
                        (List.length p.Sql.rows)
                        (List.length s.Wre.Proxy.rows)
                | Some n -> (
                    match Sql.execute t.plain base with
                    | Error e -> fail "plain error on %S: %s" base e
                    | Ok full ->
                        let want = min n (List.length full.Sql.rows) in
                        if List.length s.Wre.Proxy.rows <> want then
                          fail "LIMIT count on %S: got %d, want %d" sql
                            (List.length s.Wre.Proxy.rows)
                            want
                        else if not (is_submultiset s.Wre.Proxy.rows full.Sql.rows) then
                          fail "LIMIT rows on %S are not a subset of the full plain result" sql
                        else steps (i + 1)))
          | Error e, _, _ -> fail "plain error on %S: %s" sql e
          | _, Error e, _ -> fail "sequential error on %S: %s" sql e
          | _, _, Error e -> fail "parallel error on %S: %s" sql e)
  in
  steps 0

(* ---------------- Two-table join workloads ---------------- *)

let pets_schema =
  Schema.create
    [
      { name = "pid"; ty = TInt; nullable = false };
      { name = "owner"; ty = TText; nullable = false };
      { name = "species"; ty = TText; nullable = false };
    ]

let species = [| "dog"; "cat"; "fish"; "hen" |]
let n_people = 32
let n_pets = 20
let n_join_statements = 5

type join_targets = {
  j_plain : Database.t;
  j_proxy : Wre.Proxy.t;
  j_next_person : int ref;
  j_next_pet : int ref;
  j_names : string array;
  j_cities : string array;
  j_owners : string array;
  j_species : string array;
}

(* Two tables under one proxy: pets.owner draws from the same universe
   as people.name, so the equi-join on those columns actually matches.
   Both join columns are encrypted — the join must go through the
   tag-bucket path, not key passthrough. *)
let build_join ~kind ~seed =
  let prng = Stdx.Prng.create seed in
  let people =
    List.init n_people (fun i ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text (pick prng names);
          Value.Text (pick prng cities);
          Value.Int (Int64.of_int (18 + Stdx.Prng.int prng 50));
        |])
  in
  let pets =
    List.init n_pets (fun i ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text (pick prng names);
          Value.Text (pick prng species);
        |])
  in
  let j_plain = Database.create () in
  let pt = Database.create_table j_plain ~name:"people" ~schema:plain_schema in
  List.iter (fun r -> ignore (Table.insert pt r)) people;
  ignore (Table.create_index pt ~column:"name");
  let qt = Database.create_table j_plain ~name:"pets" ~schema:pets_schema in
  List.iter (fun r -> ignore (Table.insert qt r)) pets;
  let enc_db = Database.create () in
  let master = Crypto.Keys.of_raw ~k0:(String.make 16 'd') ~k1:(String.make 32 'f') in
  let ep =
    Wre.Encrypted_db.create ~db:enc_db ~name:"people" ~plain_schema ~key_column:"id"
      ~encrypted_columns:[ "name"; "city" ] ~kind ~master
      ~dist_of:
        (Wre.Dist_est.of_rows ~schema:plain_schema ~columns:[ "name"; "city" ]
           (List.to_seq people))
      ~seed:(Int64.logxor seed 0x5eedL) ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert ep r)) people;
  let et =
    Wre.Encrypted_db.create ~db:enc_db ~name:"pets" ~plain_schema:pets_schema ~key_column:"pid"
      ~encrypted_columns:[ "owner"; "species" ] ~kind ~master
      ~dist_of:
        (Wre.Dist_est.of_rows ~schema:pets_schema ~columns:[ "owner"; "species" ]
           (List.to_seq pets))
      ~seed:(Int64.logxor seed 0x9e75L) ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert et r)) pets;
  ( {
      j_plain;
      j_proxy = Wre.Proxy.create_multi [ ep; et ];
      j_next_person = ref n_people;
      j_next_pet = ref n_pets;
      j_names = present people 1 names;
      j_cities = present people 2 cities;
      j_owners = present pets 1 names;
      j_species = present pets 2 species;
    },
    prng )

let gen_join_where t prng =
  let atom () =
    match Stdx.Prng.int prng 6 with
    | 0 -> Printf.sprintf "people.city = '%s'" (pick prng t.j_cities)
    | 1 -> Printf.sprintf "pets.species = '%s'" (pick prng t.j_species)
    | 2 -> Printf.sprintf "people.age >= %d" (18 + Stdx.Prng.int prng 50)
    | 3 ->
        let a = Stdx.Prng.int prng 40 in
        Printf.sprintf "people.id BETWEEN %d AND %d" a (a + Stdx.Prng.int prng 20)
    | 4 -> Printf.sprintf "NOT pets.species = '%s'" (pick prng t.j_species)
    | _ -> Printf.sprintf "people.name = '%s'" (pick prng t.j_names)
  in
  match Stdx.Prng.int prng 4 with
  | 0 -> atom ()
  | 1 -> Printf.sprintf "%s AND %s" (atom ()) (atom ())
  | 2 -> Printf.sprintf "%s OR %s" (atom ()) (atom ())
  | _ -> Printf.sprintf "(%s OR %s) AND %s" (atom ()) (atom ()) (atom ())

let gen_join_statement t prng =
  match Stdx.Prng.int prng 8 with
  | 0 ->
      let id = !(t.j_next_person) in
      incr t.j_next_person;
      Mutation
        (Printf.sprintf "INSERT INTO people VALUES (%d, '%s', '%s', %d)" id
           (pick prng t.j_names) (pick prng t.j_cities)
           (18 + Stdx.Prng.int prng 50))
  | 1 ->
      let id = !(t.j_next_pet) in
      incr t.j_next_pet;
      Mutation
        (Printf.sprintf "INSERT INTO pets VALUES (%d, '%s', '%s')" id (pick prng t.j_owners)
           (pick prng t.j_species))
  | 2 ->
      let a = Stdx.Prng.int prng 25 in
      Mutation (Printf.sprintf "DELETE FROM pets WHERE pid BETWEEN %d AND %d" a (a + 1))
  | _ ->
      let projection =
        match Stdx.Prng.int prng 3 with
        | 0 -> "*"
        | 1 -> "people.id, pets.pid"
        | _ -> "people.name, pets.species, people.age"
      in
      let where =
        if Stdx.Prng.int prng 4 = 0 then None else Some (gen_join_where t prng)
      in
      let limit = if Stdx.Prng.int prng 4 = 0 then Some (1 + Stdx.Prng.int prng 10) else None in
      Select { projection; where; limit }

(* Same three-way oracle as the single-table suite, over join SELECTs:
   plaintext Sqldb join vs sequential encrypted join vs N-domain
   parallel join, with mutations on either table interleaved so the
   join sees fresh epochs. *)
let run_join_workload ~pool ~kind ~seed =
  let t, prng = build_join ~kind ~seed in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec steps i =
    if i >= n_join_statements then Ok ()
    else
      match gen_join_statement t prng with
      | Mutation sql -> (
          match (Sql.execute t.j_plain sql, Wre.Proxy.execute t.j_proxy sql) with
          | Ok p, Ok e ->
              if p.Sql.affected = e.Wre.Proxy.affected then steps (i + 1)
              else
                fail "affected mismatch on %S: plain %d, encrypted %d" sql p.Sql.affected
                  e.Wre.Proxy.affected
          | Error e, _ -> fail "plain error on %S: %s" sql e
          | _, Error e -> fail "encrypted error on %S: %s" sql e)
      | Select { projection; where; limit } -> (
          let base =
            Printf.sprintf "SELECT %s FROM people JOIN pets ON people.name = pets.owner%s"
              projection
              (match where with None -> "" | Some w -> " WHERE " ^ w)
          in
          let sql =
            match limit with None -> base | Some n -> Printf.sprintf "%s LIMIT %d" base n
          in
          match
            ( Sql.execute t.j_plain sql,
              Wre.Proxy.execute t.j_proxy sql,
              Wre.Proxy.execute ~pool t.j_proxy sql )
          with
          | Ok p, Ok s, Ok par -> (
              if s.Wre.Proxy.join_exec = None then
                fail "encrypted %S did not take the join path" sql
              else if par.Wre.Proxy.rows <> s.Wre.Proxy.rows then
                fail "parallel join differs from sequential on %S (%d vs %d rows)" sql
                  (List.length par.Wre.Proxy.rows)
                  (List.length s.Wre.Proxy.rows)
              else
                match limit with
                | None ->
                    if sorted s.Wre.Proxy.rows = sorted p.Sql.rows then steps (i + 1)
                    else
                      fail "join row sets differ on %S: plain %d rows, encrypted %d rows" sql
                        (List.length p.Sql.rows)
                        (List.length s.Wre.Proxy.rows)
                | Some n -> (
                    match Sql.execute t.j_plain base with
                    | Error e -> fail "plain error on %S: %s" base e
                    | Ok full ->
                        let want = min n (List.length full.Sql.rows) in
                        if List.length s.Wre.Proxy.rows <> want then
                          fail "join LIMIT count on %S: got %d, want %d" sql
                            (List.length s.Wre.Proxy.rows)
                            want
                        else if not (is_submultiset s.Wre.Proxy.rows full.Sql.rows) then
                          fail "join LIMIT rows on %S are not a subset of the full plain result"
                            sql
                        else steps (i + 1)))
          | Error e, _, _ -> fail "plain error on %S: %s" sql e
          | _, Error e, _ -> fail "sequential error on %S: %s" sql e
          | _, _, Error e -> fail "parallel error on %S: %s" sql e)
  in
  steps 0

(* ---------------- Range (ESEDS traversal) workloads ---------------- *)

(* One table with a bucketized range column: every range predicate at
   conjunctive position must take the [Range_traverse] plan and still
   agree with the plaintext oracle and the flat-era semantics — byte-
   identical between sequential and parallel, sub-multiset under
   LIMIT. OR'd ranges keep the flat rtag rewrite; inverted and strict
   bounds must stay total. *)

let range_schema =
  Schema.create
    [
      { name = "id"; ty = TInt; nullable = false };
      { name = "name"; ty = TText; nullable = false };
      { name = "score"; ty = TInt; nullable = false };
      { name = "age"; ty = TInt; nullable = false };
    ]

let n_range_rows = 48
let n_range_statements = 6
let range_buckets = 8

type range_targets = {
  r_plain : Database.t;
  r_proxy : Wre.Proxy.t;
  r_next_id : int ref;
  r_names : string array;
}

(* Skewed scores (product of two uniforms): equi-depth boundaries land
   unevenly, so covers regularly straddle subtree seams. *)
let gen_score prng = Stdx.Prng.int prng 100 * Stdx.Prng.int prng 10

let build_range ~kind ~seed =
  let prng = Stdx.Prng.create seed in
  let rows =
    List.init n_range_rows (fun i ->
        [|
          Value.Int (Int64.of_int i);
          Value.Text (pick prng names);
          Value.Int (Int64.of_int (gen_score prng));
          Value.Int (Int64.of_int (18 + Stdx.Prng.int prng 50));
        |])
  in
  let r_plain = Database.create () in
  let pt = Database.create_table r_plain ~name:"scores" ~schema:range_schema in
  List.iter (fun r -> ignore (Table.insert pt r)) rows;
  ignore (Table.create_index pt ~column:"name");
  ignore (Table.create_index pt ~column:"score");
  let enc_db = Database.create () in
  let master = Crypto.Keys.of_raw ~k0:(String.make 16 'd') ~k1:(String.make 32 'f') in
  let training =
    Array.of_list
      (List.map (fun r -> match r.(2) with Value.Int x -> x | _ -> 0L) rows)
  in
  let edb =
    Wre.Encrypted_db.create ~db:enc_db ~name:"scores" ~plain_schema:range_schema
      ~key_column:"id" ~encrypted_columns:[ "name" ] ~kind ~master
      ~range_columns:[ ("score", range_buckets) ]
      ~range_training:(fun _ -> training)
      ~dist_of:
        (Wre.Dist_est.of_rows ~schema:range_schema ~columns:[ "name" ] (List.to_seq rows))
      ~seed:(Int64.logxor seed 0x5eedL) ()
  in
  List.iter (fun r -> ignore (Wre.Encrypted_db.insert edb r)) rows;
  ( {
      r_plain;
      r_proxy = Wre.Proxy.create edb;
      r_next_id = ref n_range_rows;
      r_names = present rows 1 names;
    },
    prng )

type range_stmt =
  | R_mutation of string
  | R_select of {
      rs_projection : string;
      rs_where : string option;
      rs_limit : int option;
      rs_traverse : bool;  (** generated shape puts a range leg at conjunctive position *)
    }

(* Range atoms: BETWEEN (sometimes inverted), one-sided <= / >=, the
   newly-accepted strict < / >, and point-as-range equality. *)
let gen_range_atom prng =
  let v () = Stdx.Prng.int prng 1000 in
  match Stdx.Prng.int prng 6 with
  | 0 ->
      let a = v () in
      Printf.sprintf "score BETWEEN %d AND %d" a (a - 40 + Stdx.Prng.int prng 400)
  | 1 -> Printf.sprintf "score <= %d" (v ())
  | 2 -> Printf.sprintf "score >= %d" (v ())
  | 3 -> Printf.sprintf "score < %d" (v ())
  | 4 -> Printf.sprintf "score > %d" (v ())
  | _ -> Printf.sprintf "score = %d" (v ())

let gen_range_other t prng =
  match Stdx.Prng.int prng 3 with
  | 0 -> Printf.sprintf "name = '%s'" (pick prng t.r_names)
  | 1 ->
      let a = Stdx.Prng.int prng 60 in
      Printf.sprintf "id BETWEEN %d AND %d" a (a + Stdx.Prng.int prng 20)
  | _ -> Printf.sprintf "age >= %d" (18 + Stdx.Prng.int prng 50)

let gen_range_where t prng =
  match Stdx.Prng.int prng 5 with
  | 0 -> (gen_range_atom prng, true)
  | 1 -> (Printf.sprintf "%s AND %s" (gen_range_atom prng) (gen_range_other t prng), true)
  | 2 -> (Printf.sprintf "%s AND %s" (gen_range_other t prng) (gen_range_atom prng), true)
  | 3 -> (Printf.sprintf "%s AND %s" (gen_range_atom prng) (gen_range_atom prng), true)
  | _ ->
      (* Range under OR: the flat rtag rewrite stays in charge. *)
      (Printf.sprintf "%s OR %s" (gen_range_atom prng) (gen_range_other t prng), false)

let gen_range_statement t prng =
  match Stdx.Prng.int prng 10 with
  | 0 ->
      let id = !(t.r_next_id) in
      incr t.r_next_id;
      R_mutation
        (Printf.sprintf "INSERT INTO scores VALUES (%d, '%s', %d, %d)" id (pick prng t.r_names)
           (gen_score prng)
           (18 + Stdx.Prng.int prng 50))
  | 1 ->
      (* UPDATE through a range predicate: rows move between buckets. *)
      let w, _ = gen_range_where t prng in
      let a = Stdx.Prng.int prng 50 in
      R_mutation
        (Printf.sprintf "UPDATE scores SET score = %d WHERE id BETWEEN %d AND %d AND (%s)"
           (gen_score prng) a (a + Stdx.Prng.int prng 10) w)
  | 2 ->
      let a = Stdx.Prng.int prng 60 in
      R_mutation
        (Printf.sprintf "DELETE FROM scores WHERE id BETWEEN %d AND %d AND %s" a (a + 1)
           (gen_range_atom prng))
  | _ ->
      let rs_projection =
        match Stdx.Prng.int prng 3 with 0 -> "*" | 1 -> "id" | _ -> "id, name, score"
      in
      let rs_where, rs_traverse =
        if Stdx.Prng.int prng 10 = 0 then (None, false)
        else
          let w, trav = gen_range_where t prng in
          (Some w, trav)
      in
      let rs_limit =
        if Stdx.Prng.int prng 4 = 0 then Some (1 + Stdx.Prng.int prng 12) else None
      in
      R_select { rs_projection; rs_where; rs_limit; rs_traverse }

(* The three-way oracle, plus a plan assertion: a conjunctive range
   SELECT must actually execute as [Range_traverse score_rtag] — this
   is what stops the traversal path from silently regressing to the
   flat plan (or a full scan). *)
let run_range_workload ~pool ~kind ~seed =
  let t, prng = build_range ~kind ~seed in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let took_traverse (r : Wre.Proxy.query_result) =
    match r.Wre.Proxy.exec with
    | Some e -> e.Executor.plan = Executor.Range_traverse "score_rtag"
    | None -> false
  in
  let rec steps i =
    if i >= n_range_statements then Ok ()
    else
      match gen_range_statement t prng with
      | R_mutation sql -> (
          match (Sql.execute t.r_plain sql, Wre.Proxy.execute t.r_proxy sql) with
          | Ok p, Ok e ->
              if p.Sql.affected = e.Wre.Proxy.affected then steps (i + 1)
              else
                fail "affected mismatch on %S: plain %d, encrypted %d" sql p.Sql.affected
                  e.Wre.Proxy.affected
          | Error e, _ -> fail "plain error on %S: %s" sql e
          | _, Error e -> fail "encrypted error on %S: %s" sql e)
      | R_select { rs_projection; rs_where; rs_limit; rs_traverse } -> (
          let base =
            Printf.sprintf "SELECT %s FROM scores%s" rs_projection
              (match rs_where with None -> "" | Some w -> " WHERE " ^ w)
          in
          let sql =
            match rs_limit with None -> base | Some n -> Printf.sprintf "%s LIMIT %d" base n
          in
          match
            ( Sql.execute t.r_plain sql,
              Wre.Proxy.execute t.r_proxy sql,
              Wre.Proxy.execute ~pool t.r_proxy sql )
          with
          | Ok p, Ok s, Ok par -> (
              if rs_traverse && not (took_traverse s) then
                fail "encrypted %S did not take the Range_traverse plan" sql
              else if rs_traverse && not (took_traverse par) then
                fail "parallel %S did not take the Range_traverse plan" sql
              else if par.Wre.Proxy.rows <> s.Wre.Proxy.rows then
                fail "parallel differs from sequential on %S (%d vs %d rows)" sql
                  (List.length par.Wre.Proxy.rows)
                  (List.length s.Wre.Proxy.rows)
              else
                match rs_limit with
                | None ->
                    if sorted s.Wre.Proxy.rows = sorted p.Sql.rows then steps (i + 1)
                    else
                      fail "row sets differ on %S: plain %d rows, encrypted %d rows" sql
                        (List.length p.Sql.rows)
                        (List.length s.Wre.Proxy.rows)
                | Some n -> (
                    match Sql.execute t.r_plain base with
                    | Error e -> fail "plain error on %S: %s" base e
                    | Ok full ->
                        let want = min n (List.length full.Sql.rows) in
                        if List.length s.Wre.Proxy.rows <> want then
                          fail "LIMIT count on %S: got %d, want %d" sql
                            (List.length s.Wre.Proxy.rows)
                            want
                        else if not (is_submultiset s.Wre.Proxy.rows full.Sql.rows) then
                          fail "LIMIT rows on %S are not a subset of the full plain result" sql
                        else steps (i + 1)))
          | Error e, _, _ -> fail "plain error on %S: %s" sql e
          | _, Error e, _ -> fail "sequential error on %S: %s" sql e
          | _, _, Error e -> fail "parallel error on %S: %s" sql e)
  in
  steps 0

(* ---------------- Corpus persistence + replay ---------------- *)

let corpus_dir = "corpus"

let persist_failure ~mode ~kind ~domains ~seed msg =
  if not (Sys.file_exists corpus_dir) then Unix.mkdir corpus_dir 0o755;
  let path =
    Filename.concat corpus_dir
      (Printf.sprintf "differential-%s-%s-d%d-%Ld.seed" mode (Wre.Scheme.to_string kind) domains
         seed)
  in
  Store.Io.atomic_write_text ~path
    (Printf.sprintf "mode=%s scheme=%s domains=%d seed=%Ld\n# %s\n" mode
       (Wre.Scheme.to_string kind) domains seed msg);
  path

let parse_corpus path =
  match Store.Io.read_file path with
  | None -> Error "unreadable corpus file"
  | Some text -> (
      let line = match String.split_on_char '\n' text with l :: _ -> l | [] -> "" in
      let kv =
        List.filter_map
          (fun part ->
            match String.index_opt part '=' with
            | Some i ->
                Some
                  ( String.sub part 0 i,
                    String.sub part (i + 1) (String.length part - i - 1) )
            | None -> None)
          (String.split_on_char ' ' line)
      in
      match
        ( Option.bind (List.assoc_opt "scheme" kv) (fun s ->
              Result.to_option (Wre.Scheme.of_string s)),
          Option.bind (List.assoc_opt "domains" kv) int_of_string_opt,
          Option.bind (List.assoc_opt "seed" kv) Int64.of_string_opt )
      with
      | Some kind, Some domains, Some seed ->
          (* Seeds from before the join suite carry no mode key. *)
          let mode = Option.value ~default:"single" (List.assoc_opt "mode" kv) in
          Ok (mode, kind, domains, seed)
      | _ -> Error (Printf.sprintf "malformed corpus header %S" line))

let replay_corpus () =
  let files =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      List.sort compare
        (List.filter
           (fun f -> Filename.check_suffix f ".seed")
           (Array.to_list (Sys.readdir corpus_dir)))
    else []
  in
  List.iter
    (fun file ->
      match parse_corpus (Filename.concat corpus_dir file) with
      | Error e -> Alcotest.fail (file ^ ": " ^ e)
      | Ok (mode, kind, domains, seed) -> (
          Stdx.Task_pool.with_pool ~domains @@ fun pool ->
          let run =
            if mode = "join" then run_join_workload
            else if mode = "range" then run_range_workload
            else run_workload
          in
          match run ~pool ~kind ~seed with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" file msg)))
    files

(* ---------------- Harness knobs + cases ---------------- *)

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with Some v -> v | None -> default

let master_seed =
  match Option.bind (Sys.getenv_opt "WRE_SEED") Int64.of_string_opt with
  | Some s -> s
  | None -> 42L

let domain_configs =
  match Sys.getenv_opt "WRE_DOMAINS" with
  | Some s -> (
      match List.filter_map int_of_string_opt (String.split_on_char ',' s) with
      | [] -> [ 1; 4 ]
      | ds -> ds)
  | None -> [ 1; 4 ]

let workloads = env_int "WRE_ORACLE_WORKLOADS" 200

let workload_seed ~kind ~index =
  Int64.add master_seed
    (Int64.of_int ((Hashtbl.hash (Wre.Scheme.to_string kind) * 1_000_003) + index))

let oracle_case ~mode ~run kind domains () =
  Stdx.Task_pool.with_pool ~domains @@ fun pool ->
  for index = 0 to workloads - 1 do
    let seed = workload_seed ~kind ~index in
    match run ~pool ~kind ~seed with
    | Ok () -> ()
    | Error msg ->
        let path = persist_failure ~mode ~kind ~domains ~seed msg in
        Alcotest.fail
          (Printf.sprintf "workload %d (seed %Ld) failed: %s [seed saved to %s — commit it to \
                           test/corpus/ to pin the regression]"
             index seed msg path)
  done

let cases ~mode ~run =
  List.concat_map
    (fun kind ->
      List.map
        (fun domains ->
          Alcotest.test_case
            (Printf.sprintf "%s x %d domains" (Wre.Scheme.to_string kind) domains)
            `Quick (oracle_case ~mode ~run kind domains))
        domain_configs)
    schemes

let () =
  Alcotest.run "differential"
    [
      ("oracle", cases ~mode:"single" ~run:run_workload);
      ("join-oracle", cases ~mode:"join" ~run:run_join_workload);
      ("range-oracle", cases ~mode:"range" ~run:run_range_workload);
      ("corpus", [ Alcotest.test_case "replay saved seeds" `Quick replay_corpus ]);
    ]
