(* Multi-version GC rounds (§4.5) compact only the records that hold a
   closed lifespan. That is sound only if every path that puts a record
   into a shard's partition — the owner's writes, a migration's adoption,
   demand paging and a reload from the store — registers the records a
   later round must shrink. The invariant checked here: right after any
   shard's round, no resident record of that shard can be compacted any
   further at its compaction floor. *)

open Weaver_core
module Vclock = Weaver_vclock.Vclock
module Mgraph = Weaver_graph.Mgraph
module Engine = Weaver_sim.Engine
module Fault = Weaver_sim.Fault
module Xrand = Weaver_util.Xrand
module Programs = Weaver_programs.Std_programs

let n_shards = 2
let n_vertices = 40
let vid i = Printf.sprintf "g%02d" i
let ok = function Ok v -> v | Error e -> Alcotest.failf "%s" e

(* Drive the cluster event by event until [until], checking each shard
   right after each of its compaction rounds. Returns the number of
   records checked. *)
let run_checked c ~until =
  let engine = (Cluster.runtime c).Runtime.engine in
  let last = Array.make n_shards (-1) in
  let checked = ref 0 in
  let check s =
    let rounds, _ = Cluster.shard_gc_work c s in
    if rounds <> last.(s) then begin
      last.(s) <- rounds;
      match Cluster.shard_gc_floor c s with
      | None -> ()
      | Some floor ->
          List.iter
            (fun id ->
              match Cluster.shard_vertex c ~shard:s id with
              | None -> ()
              | Some v -> (
                  incr checked;
                  match Mgraph.compact Vclock.precedes v ~watermark:floor with
                  | Some v' when v' == v -> ()
                  | _ ->
                      Alcotest.failf "shard %d round %d at %.0f us: %s still compactable" s
                        rounds (Engine.now engine) id))
            (Cluster.shard_resident_ids c s)
    end
  in
  while Engine.now engine < until && Engine.step engine do
    for s = 0 to n_shards - 1 do
      check s
    done
  done;
  !checked

(* Seeded mix of every op that closes a lifespan (prop overwrites and
   deletes, edge deletes, edge-prop overwrites, vertex deletes) plus edge
   creations and point reads, a live migration, an in-place crash/restart
   (reload from the store) and a crash the manager answers with a
   replacement and an epoch barrier. With [capacity], shards demand-page
   from the store throughout. *)
let scenario ~capacity () =
  let cfg =
    {
      Config.default with
      Config.seed = 7;
      Config.n_gatekeepers = 2;
      Config.n_shards;
      Config.gc_period = 1_000.0;
      Config.shard_capacity = capacity;
    }
  in
  let c = Cluster.create cfg in
  Programs.Std.register_all (Cluster.registry c);
  let client = Cluster.client c in
  let edges = ref [] in
  for i = 0 to n_vertices - 1 do
    let tx = Client.Tx.begin_ client in
    ignore (Client.Tx.create_vertex tx ~id:(vid i) ());
    Client.Tx.set_vertex_prop tx ~vid:(vid i) ~key:"k" ~value:"0";
    ok (Client.commit client tx)
  done;
  for i = 0 to n_vertices - 1 do
    let tx = Client.Tx.begin_ client in
    let e = Client.Tx.create_edge tx ~src:(vid i) ~dst:(vid ((i + 1) mod n_vertices)) in
    ok (Client.commit client tx);
    edges := (vid i, e) :: !edges
  done;
  (* the vertex that migrates: closed versions in its store record, and no
     writes after the move, so only the adoption can register it *)
  let tx = Client.Tx.begin_ client in
  ignore (Client.Tx.create_vertex tx ~id:"m" ());
  ok (Client.commit client tx);
  List.iter
    (fun value ->
      let tx = Client.Tx.begin_ client in
      Client.Tx.set_vertex_prop tx ~vid:"m" ~key:"k" ~value;
      ok (Client.commit client tx))
    [ "1"; "2"; "3" ];
  let engine = (Cluster.runtime c).Runtime.engine in
  let start = Engine.now engine in
  let stop = start +. 200_000.0 in
  let rng = Xrand.create ~seed:11 () in
  let pick l = List.nth l (Xrand.int rng (List.length l)) in
  let some_vid () = vid (Xrand.int rng n_vertices) in
  let write tx =
    match Xrand.int rng 8 with
    | 0 | 1 ->
        Client.Tx.set_vertex_prop tx ~vid:(some_vid ()) ~key:"k"
          ~value:(string_of_int (Xrand.int rng 1000))
    | 2 -> Client.Tx.del_vertex_prop tx ~vid:(some_vid ()) ~key:"k"
    | 3 when !edges <> [] ->
        let src, e = pick !edges in
        edges := List.filter (fun (_, e') -> e' <> e) !edges;
        Client.Tx.delete_edge tx ~src ~eid:e
    | 4 when !edges <> [] ->
        let src, e = pick !edges in
        Client.Tx.set_edge_prop tx ~src ~eid:e ~key:"w"
          ~value:(string_of_int (Xrand.int rng 1000))
    | 5 ->
        let src = some_vid () in
        edges := (src, Client.Tx.create_edge tx ~src ~dst:(some_vid ())) :: !edges
    | 6 when Xrand.int rng 8 = 0 ->
        (* rare: later ops on a deleted vertex simply fail *)
        Client.Tx.delete_vertex tx (some_vid ())
    | _ ->
        Client.Tx.set_vertex_prop tx ~vid:(some_vid ()) ~key:"j"
          ~value:(string_of_int (Xrand.int rng 1000))
  in
  let writer = Cluster.client c in
  let rec next_write () =
    if Engine.now engine < stop then begin
      let tx = Client.Tx.begin_ writer in
      write tx;
      Client.commit_async writer tx ~on_result:(fun _ ->
          Engine.schedule engine ~delay:150.0 next_write)
    end
  in
  let reader = Cluster.client c in
  let rec next_read () =
    if Engine.now engine < stop then
      Client.run_program_async reader ~prog:"get_node" ~params:Progval.Null
        ~starts:[ some_vid () ]
        ~on_result:(fun _ -> Engine.schedule engine ~delay:200.0 next_read)
        ()
  in
  next_write ();
  next_read ();
  (* a migration: the new owner adopts the full-history store record *)
  let migrated = ref false in
  Engine.schedule_at engine ~time:(start +. 15_000.0) (fun () ->
      Client.migrate_async client ~vid:"m"
        ~to_shard:((Cluster.shard_of_vertex c "m" + 1) mod n_shards)
        ~on_result:(fun r -> migrated := Result.is_ok r));
  ignore
    (Cluster.install_fault_plan c
       (Fault.scripted
          [
            (* in-place restart: resync reloads the partition *)
            (start +. 25_000.0, Fault.Crash (Fault.Shard 0));
            (start +. 25_300.0, Fault.Restart (Fault.Shard 0));
            (* left down: the manager respawns it behind an epoch barrier *)
            (start +. 40_000.0, Fault.Crash (Fault.Shard 1));
          ]));
  let checked = run_checked c ~until:(stop +. 20_000.0) in
  let ctr = Cluster.counters c in
  Alcotest.(check bool) "migrated" true !migrated;
  Alcotest.(check bool) "recovered" true (ctr.Runtime.recoveries > 0);
  Alcotest.(check bool) "records checked" true (checked > 1_000);
  if capacity <> None then Alcotest.(check bool) "paged" true (ctr.Runtime.page_ins > 0);
  let swept = List.init n_shards (fun s -> snd (Cluster.shard_gc_work c s)) in
  Alcotest.(check bool) "compacted something" true (List.exists (fun n -> n > 0) swept)

let suites =
  [
    ( "gc",
      [
        Alcotest.test_case "round leaves nothing to compact" `Quick
          (scenario ~capacity:None);
        Alcotest.test_case "round leaves nothing to compact, paging" `Quick
          (scenario ~capacity:(Some 12));
      ] );
  ]
