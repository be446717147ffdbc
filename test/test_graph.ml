(* Tests for the multi-version property graph: snapshot visibility,
   property versioning, deletion marking, and GC compaction. *)

open Weaver_graph
module Vclock = Weaver_vclock.Vclock

(* timestamps along a single gatekeeper's timeline: t 1, t 2, ... *)
let t i =
  let clocks = [| i; 0 |] in
  Vclock.make ~epoch:0 ~origin:0 clocks

let before a b = Vclock.precedes a b

let test_create_and_visibility () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 5) in
  Alcotest.(check bool) "invisible before creation" false
    (Mgraph.vertex_alive before v ~at:(t 4));
  Alcotest.(check bool) "visible at creation" true
    (Mgraph.vertex_alive before v ~at:(t 5));
  Alcotest.(check bool) "visible after" true (Mgraph.vertex_alive before v ~at:(t 9))

let test_delete_vertex_versions () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.delete_vertex v ~at:(t 5) in
  Alcotest.(check bool) "alive before delete" true (Mgraph.vertex_alive before v ~at:(t 4));
  Alcotest.(check bool) "dead at delete" false (Mgraph.vertex_alive before v ~at:(t 5));
  Alcotest.(check bool) "dead after" false (Mgraph.vertex_alive before v ~at:(t 8))

let test_edges_snapshot () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"c" ~at:(t 4) in
  let v = Mgraph.delete_edge v ~eid:"e1" ~at:(t 6) in
  let dsts at =
    List.map (fun e -> e.Mgraph.dst) (Mgraph.out_edges before v ~at)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "t1: none" [] (dsts (t 1));
  Alcotest.(check (list string)) "t3: e1" [ "b" ] (dsts (t 3));
  Alcotest.(check (list string)) "t5: both" [ "b"; "c" ] (dsts (t 5));
  Alcotest.(check (list string)) "t7: e2 only" [ "c" ] (dsts (t 7));
  Alcotest.(check int) "degree at t5" 2 (Mgraph.degree before v ~at:(t 5))

let test_historical_read_after_delete () =
  (* the multi-version graph answers queries at old timestamps even after
     deletions — the basis of Weaver's historical queries *)
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.delete_edge v ~eid:"e" ~at:(t 3) in
  let v = Mgraph.delete_vertex v ~at:(t 4) in
  Alcotest.(check int) "past edge visible" 1
    (List.length (Mgraph.out_edges before v ~at:(t 2)));
  Alcotest.(check bool) "past vertex visible" true
    (Mgraph.vertex_alive before v ~at:(t 2))

let test_vertex_prop_versioning () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.set_vertex_prop before v ~key:"color" ~value:"red" ~at:(t 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"color" ~value:"blue" ~at:(t 5) in
  Alcotest.(check (list (pair string string)))
    "old version" [ ("color", "red") ]
    (Mgraph.vertex_props before v ~at:(t 3));
  Alcotest.(check (list (pair string string)))
    "new version" [ ("color", "blue") ]
    (Mgraph.vertex_props before v ~at:(t 6));
  let v = Mgraph.del_vertex_prop before v ~key:"color" ~at:(t 7) in
  Alcotest.(check (list (pair string string)))
    "deleted" [] (Mgraph.vertex_props before v ~at:(t 8))

let test_multiple_props () =
  (* paper §2.1: an edge may carry weight=3.0 and color=red simultaneously *)
  let v = Mgraph.create_vertex ~vid:"u" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"w" ~at:(t 1) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"weight" ~value:"3.0" ~at:(t 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"color" ~value:"red" ~at:(t 2) in
  let e = List.hd (Mgraph.out_edges before v ~at:(t 3)) in
  let props = List.sort compare (Mgraph.edge_props before e ~at:(t 3)) in
  Alcotest.(check (list (pair string string)))
    "both props" [ ("color", "red"); ("weight", "3.0") ] props

let test_edge_has_prop () =
  let v = Mgraph.create_vertex ~vid:"u" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"w" ~at:(t 1) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"VISIBLE" ~value:"" ~at:(t 2) in
  let e at = List.hd (Mgraph.out_edges before v ~at) in
  Alcotest.(check bool) "has prop" true
    (Mgraph.edge_has_prop before (e (t 3)) ~key:"VISIBLE" ~at:(t 3) ());
  Alcotest.(check bool) "not yet at t1" false
    (Mgraph.edge_has_prop before (e (t 1)) ~key:"VISIBLE" ~at:(t 1) ());
  Alcotest.(check bool) "value mismatch" false
    (Mgraph.edge_has_prop before (e (t 3)) ~key:"VISIBLE" ~value:"x" ~at:(t 3) ())

let test_deleted_edge_prop_untouched () =
  (* setting a property on a deleted edge's id must not resurrect it *)
  let v = Mgraph.create_vertex ~vid:"u" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"w" ~at:(t 1) in
  let v = Mgraph.delete_edge v ~eid:"e" ~at:(t 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e" ~key:"k" ~value:"v" ~at:(t 3) in
  Alcotest.(check int) "edge still dead" 0
    (List.length (Mgraph.out_edges before v ~at:(t 4)))

let test_compact_drops_dead () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.delete_edge v ~eid:"e1" ~at:(t 3) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"c" ~at:(t 4) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"1" ~at:(t 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"2" ~at:(t 5) in
  (* watermark t6: e1 (deleted t3) and p=1 (closed t5) are unreachable *)
  match Mgraph.compact before v ~watermark:(t 6) with
  | None -> Alcotest.fail "vertex should survive"
  | Some v' ->
      Alcotest.(check int) "one edge version left" 1 (Array.length v'.Mgraph.out);
      Alcotest.(check int) "one prop version left" 1 (Array.length v'.Mgraph.v_props);
      Alcotest.(check (list (pair string string)))
        "current prop intact" [ ("p", "2") ]
        (Mgraph.vertex_props before v' ~at:(t 7))

let test_compact_removes_dead_vertex () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.delete_vertex v ~at:(t 2) in
  Alcotest.(check bool) "gone below watermark" true
    (Mgraph.compact before v ~watermark:(t 5) = None);
  (* watermark at the deletion stamp: not strictly before, so kept *)
  Alcotest.(check bool) "kept at watermark" true
    (Mgraph.compact before v ~watermark:(t 2) <> None)

let test_compact_preserves_live () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e" ~dst:"b" ~at:(t 2) in
  match Mgraph.compact before v ~watermark:(t 100) with
  | None -> Alcotest.fail "live vertex dropped"
  | Some v' -> Alcotest.(check int) "live edge kept" 1 (Array.length v'.Mgraph.out)

(* nothing below the watermark: compaction hands back the record itself,
   not a copy, so a round that drops nothing allocates nothing *)
let test_compact_noop_is_physical () =
  let v = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let v = Mgraph.add_edge v ~eid:"e1" ~dst:"b" ~at:(t 2) in
  let v = Mgraph.set_edge_prop before v ~eid:"e1" ~key:"w" ~value:"1" ~at:(t 3) in
  let v = Mgraph.set_edge_prop before v ~eid:"e1" ~key:"w" ~value:"2" ~at:(t 6) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"1" ~at:(t 2) in
  let v = Mgraph.set_vertex_prop before v ~key:"p" ~value:"2" ~at:(t 7) in
  let v = Mgraph.add_edge v ~eid:"e2" ~dst:"c" ~at:(t 4) in
  let v = Mgraph.delete_edge v ~eid:"e2" ~at:(t 8) in
  (* every closed version ends at t6 or later: nothing is below t6 *)
  (match Mgraph.compact before v ~watermark:(t 6) with
  | Some v' -> Alcotest.(check bool) "same record" true (v' == v)
  | None -> Alcotest.fail "vertex dropped");
  (* at t7 only e1's w=1 goes: the untouched edge and the prop array are
     shared with the input *)
  match Mgraph.compact before v ~watermark:(t 7) with
  | None -> Alcotest.fail "vertex dropped"
  | Some v' ->
      Alcotest.(check bool) "copied" false (v' == v);
      Alcotest.(check bool) "props shared" true (v'.Mgraph.v_props == v.Mgraph.v_props);
      let e2 v = List.find (fun e -> e.Mgraph.eid = "e2") (Array.to_list v.Mgraph.out) in
      Alcotest.(check bool) "untouched edge shared" true (e2 v' == e2 v);
      Alcotest.(check int) "one w version left" 1
        (Array.length
           (List.find (fun e -> e.Mgraph.eid = "e1") (Array.to_list v'.Mgraph.out))
             .Mgraph.e_props)

(* [has_dead] sees a closed lifespan at each of the four levels, and
   nothing else *)
let test_has_dead_each_kind () =
  let base = Mgraph.create_vertex ~vid:"a" ~at:(t 1) in
  let base = Mgraph.add_edge base ~eid:"e" ~dst:"b" ~at:(t 2) in
  let base = Mgraph.set_vertex_prop before base ~key:"p" ~value:"1" ~at:(t 2) in
  let base = Mgraph.set_edge_prop before base ~eid:"e" ~key:"w" ~value:"1" ~at:(t 2) in
  Alcotest.(check bool) "all live" false (Mgraph.has_dead base);
  let cases =
    [
      ("vertex", Mgraph.delete_vertex base ~at:(t 3));
      ("vertex prop overwrite", Mgraph.set_vertex_prop before base ~key:"p" ~value:"2" ~at:(t 3));
      ("vertex prop delete", Mgraph.del_vertex_prop before base ~key:"p" ~at:(t 3));
      ("edge", Mgraph.delete_edge base ~eid:"e" ~at:(t 3));
      ("edge prop overwrite", Mgraph.set_edge_prop before base ~eid:"e" ~key:"w" ~value:"2" ~at:(t 3));
      ("edge prop delete", Mgraph.del_edge_prop before base ~eid:"e" ~key:"w" ~at:(t 3));
    ]
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) name true (Mgraph.has_dead v);
      (* compaction past the closing stamp drops it, and with it the flag *)
      match Mgraph.compact before v ~watermark:(t 4) with
      | Some v' -> Alcotest.(check bool) (name ^ " compacted") false (Mgraph.has_dead v')
      | None -> Alcotest.(check string) "only the vertex case drops" "vertex" name)
    cases;
  Alcotest.(check bool) "new edge opens, closes nothing" false
    (Mgraph.has_dead (Mgraph.add_edge base ~eid:"f" ~dst:"c" ~at:(t 3)))

(* property: visibility is monotone in time for undeleted objects, and an
   object is never visible before its creation stamp *)
let prop_visibility_sane =
  QCheck.Test.make ~name:"visibility bounded by creation/deletion" ~count:300
    QCheck.(triple (int_range 1 20) (int_range 1 20) (int_range 1 20))
    (fun (c, d, q) ->
      let life = { Mgraph.created = t c; deleted = Some (t (c + d)) } in
      let visible = Mgraph.alive before life ~at:(t q) in
      let expected = q >= c && q < c + d in
      visible = expected)

let prop_updates_do_not_rewrite_history =
  QCheck.Test.make ~name:"later writes never change earlier snapshots" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 15) (pair (int_range 2 30) bool))
    (fun writes ->
      (* apply a sequence of add/delete-edge writes at increasing times and
         check the t1 snapshot stays empty and intact *)
      let v = ref (Mgraph.create_vertex ~vid:"a" ~at:(t 1)) in
      let eid = ref 0 in
      List.iteri
        (fun i (ti, add) ->
          let at = t (ti + (i * 31)) in
          if add then begin
            incr eid;
            v := Mgraph.add_edge !v ~eid:(string_of_int !eid) ~dst:"z" ~at
          end
          else if !eid > 0 then v := Mgraph.delete_edge !v ~eid:(string_of_int !eid) ~at)
        writes;
      Mgraph.out_edges before !v ~at:(t 1) = []
      && Mgraph.vertex_alive before !v ~at:(t 1))

let suites =
  [
    ( "graph",
      [
        Alcotest.test_case "create/visibility" `Quick test_create_and_visibility;
        Alcotest.test_case "delete versions" `Quick test_delete_vertex_versions;
        Alcotest.test_case "edge snapshots" `Quick test_edges_snapshot;
        Alcotest.test_case "historical reads" `Quick test_historical_read_after_delete;
        Alcotest.test_case "prop versioning" `Quick test_vertex_prop_versioning;
        Alcotest.test_case "multiple props" `Quick test_multiple_props;
        Alcotest.test_case "edge_has_prop" `Quick test_edge_has_prop;
        Alcotest.test_case "dead edge prop" `Quick test_deleted_edge_prop_untouched;
        Alcotest.test_case "compact drops dead" `Quick test_compact_drops_dead;
        Alcotest.test_case "compact removes dead vertex" `Quick test_compact_removes_dead_vertex;
        Alcotest.test_case "compact preserves live" `Quick test_compact_preserves_live;
        Alcotest.test_case "compact no-op is physical" `Quick test_compact_noop_is_physical;
        Alcotest.test_case "has_dead each kind" `Quick test_has_dead_each_kind;
        QCheck_alcotest.to_alcotest prop_visibility_sane;
        QCheck_alcotest.to_alcotest prop_updates_do_not_rewrite_history;
      ] );
  ]
