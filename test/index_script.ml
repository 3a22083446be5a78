(* A seeded script over B-tree and hash indexes whose transcript is
   pinned by corpus/index-probes.txt.

   The transcript lists, for every probe, the row ids the index returned
   and the pager charges the probe made (hits, misses, rows examined,
   simulated nanoseconds), plus each index's entry count and size at
   every phase. The script covers inserts (single and batched) with
   duplicate keys, deletes, vacuum, inserts after the vacuum, lookups of
   present and missing keys, IN lists, bounded and open ranges, and the
   indexes of a view frozen before any delete.

   The committed file was written by an older index implementation
   (Hashtbl + vector postings with a lazily re-sorted B-tree), by
   printing [transcript ()] to a file; test_sqldb's "index probes match
   fixture" replays the script and compares byte for byte, so the
   postings structure can change but no answer, page touch or size
   can. *)

open Sqldb

let schema =
  Schema.create
    [
      { name = "k"; ty = Value.TInt; nullable = false };
      { name = "name"; ty = Value.TText; nullable = false };
      { name = "tag"; ty = Value.TInt; nullable = false };
      { name = "grp"; ty = Value.TText; nullable = false };
    ]

let row g i =
  [|
    Value.Int (Int64.of_int (if i mod 13 = 0 then i - 1 else i));
    Value.Text (Printf.sprintf "n%02d" (Stdx.Prng.int g 25));
    Value.Int (Int64.of_int (Stdx.Prng.int g 400 * 7919));
    Value.Text (Printf.sprintf "g%d" (i mod 6));
  |]

let transcript () =
  let buf = Buffer.create 65536 in
  (* Small pages give the B-trees two internal levels and the hash
     index overflow chains at a few hundred rows. *)
  let pager = Pager.create ~config:{ Pager.default_config with page_size = 512 } () in
  let t = Table.create pager ~name:"fx" ~schema in
  let g = Stdx.Prng.create 15L in
  ignore (Table.create_index t ~column:"name");
  ignore (Table.create_index ~kind:Table_index.Hash t ~column:"tag");
  ignore (Table.create_index ~kind:Table_index.Hash t ~column:"grp");
  for i = 0 to 299 do
    ignore (Table.insert t (row g i))
  done;
  ignore (Table.insert_batch t (Array.init 300 (fun j -> row g (300 + j))));
  (* Backfilled after the inserts, so both build paths are covered. *)
  ignore (Table.create_index t ~column:"k");
  let ids a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let probe label f =
    let before = Pager.stats pager in
    let out = f () in
    let d = Pager.diff_stats before (Pager.stats pager) in
    Printf.bprintf buf "%s -> [%s] hits=%d misses=%d rows=%d sim=%.17g\n" label
      (match out with None -> "none" | Some a -> ids a)
      d.hits d.misses d.rows_examined d.sim_ns
  in
  let int_ x = Value.Int (Int64.of_int x) in
  let text s = Value.Text s in
  let probe_all phase (index_on : string -> Table_index.t) =
    Pager.drop_caches pager;
    Printf.bprintf buf "== %s\n" phase;
    List.iter
      (fun col ->
        let idx = index_on col in
        Printf.bprintf buf "%s: entries=%d bytes=%d\n" col (Table_index.entry_count idx)
          (Table_index.size_bytes idx))
      [ "k"; "name"; "tag"; "grp" ];
    let name = index_on "name" and k = index_on "k" and tag = index_on "tag" in
    let grp = index_on "grp" in
    List.iter
      (fun s -> probe ("name=" ^ s) (fun () -> Some (Table_index.lookup name (text s))))
      [ "n00"; "n07"; "n24"; "n99"; "a"; "zz" ];
    List.iter
      (fun x -> probe (Printf.sprintf "k=%d" x) (fun () -> Some (Table_index.lookup k (int_ x))))
      [ 0; 12; 13; 14; 299; 300; 599; 600; 750; -5 ];
    List.iter
      (fun x ->
        probe
          (Printf.sprintf "tag=%d" x)
          (fun () -> Some (Table_index.lookup tag (int_ (x * 7919)))))
      [ 0; 1; 17; 199; 399; 400; 1000 ];
    List.iter
      (fun s -> probe ("grp=" ^ s) (fun () -> Some (Table_index.lookup grp (text s))))
      [ "g0"; "g5"; "g6" ];
    probe "grp IN (g1,g2)" (fun () -> Some (Table_index.lookup_many grp [ text "g1"; text "g2" ]));
    probe "name IN (n03,n11,n03,n50)" (fun () ->
        Some (Table_index.lookup_many name [ text "n03"; text "n11"; text "n03"; text "n50" ]));
    probe "tag IN (5,9,5,401)" (fun () ->
        Some (Table_index.lookup_many tag (List.map (fun x -> int_ (x * 7919)) [ 5; 9; 5; 401 ])));
    probe "k IN (1,2,3,1000)" (fun () ->
        Some (Table_index.lookup_many k [ int_ 1; int_ 2; int_ 3; int_ 1000 ]));
    let range label idx lo hi = probe label (fun () -> Table_index.range idx ?lo ?hi ()) in
    range "k in [100,140]" k (Some (int_ 100)) (Some (int_ 140));
    range "k in [-10,3]" k (Some (int_ (-10))) (Some (int_ 3));
    range "k >= 580" k (Some (int_ 580)) None;
    range "k <= 20" k None (Some (int_ 20));
    range "k in [40,30]" k (Some (int_ 40)) (Some (int_ 30));
    range "k >= 10000" k (Some (int_ 10000)) None;
    range "k <= -1" k None (Some (int_ (-1)));
    range "name in [n05,n08]" name (Some (text "n05")) (Some (text "n08"));
    range "name >= n23" name (Some (text "n23")) None;
    range "name in [n05a,n05b]" name (Some (text "n05a")) (Some (text "n05b"));
    range "name unbounded" name None None;
    range "tag range" tag (Some (int_ 0)) None
  in
  let live col = Option.get (Table.index_on t ~column:col) in
  probe_all "loaded" live;
  let early = Table.freeze t in
  for i = 0 to 599 do
    if Stdx.Prng.int g 5 = 0 then ignore (Table.delete t i)
  done;
  probe_all "deleted" live;
  Table.vacuum t;
  probe_all "vacuumed" live;
  for i = 600 to 759 do
    ignore (Table.insert t (row g i))
  done;
  probe_all "regrown" live;
  probe_all "early view" (fun col -> Option.get (Read_view.index_on early ~column:col));
  Buffer.contents buf
