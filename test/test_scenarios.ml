(* Tests for the experiment scenarios the bench and the command line share
   (lib/workloads): each reruns to the same fingerprint at tiny options,
   the contention quick-look at the command line's defaults shows the
   non-blocking refinement path consulting the oracle less than the
   blocking one, and the work-counter gate fails on what it gates. *)

open Weaver_workloads

let same name run fingerprint =
  let a = fingerprint (run ()) and b = fingerprint (run ()) in
  Alcotest.(check bool) (name ^ ": rerun gives the same fingerprint") true (a = b)

let test_sweep () =
  same "sweep"
    (fun () -> Sweepbench.run { Sweepbench.sw_seed = 3 })
    (fun r -> r.Sweepbench.sw_fingerprint)

let test_contention () =
  same "contention"
    (fun () ->
      Contentionbench.run { Contentionbench.quick_opts with Contentionbench.ct_per_writer = 5 })
    (fun r -> r.Contentionbench.cr_fingerprint)

let test_snapshot () =
  same "snapshot"
    (fun () ->
      Snapshotbench.run { Snapshotbench.default_opts with Snapshotbench.sn_window = 20_000.0 })
    (fun r -> r.Snapshotbench.sr_fingerprint)

let test_rebalance () =
  same "rebalance"
    (fun () -> Rebalancebench.run Rebalancebench.default_opts)
    (fun r -> (r.Rebalancebench.rb_fingerprint, r.Rebalancebench.rb_move_log))

let test_replication () =
  same "replication"
    (fun () ->
      Replbench.run
        { Replbench.default_opts with Replbench.rl_readers = 6; rl_duration = 20_000.0 })
    (fun r -> r.Replbench.rp_fingerprint)

let test_mixed () =
  same "mixed"
    (fun () -> Mixedbench.run { Mixedbench.mx_txs = 5; mx_progs = 2 })
    (fun r -> (r.Mixedbench.mx_fingerprint, r.Mixedbench.mx_tx_traces))

(* The quick-look shows the refinement path only if concurrent stamps
   reach the shard undecided; with four shards and two gatekeepers they
   did not, and both arms consulted the oracle equally often. *)
let test_contention_quick_look () =
  let arm nonblocking =
    Contentionbench.run
      { Contentionbench.quick_opts with Contentionbench.ct_nonblocking = nonblocking }
  in
  let blocking = arm false and nonblocking = arm true in
  Alcotest.(check bool) "blocking arm consults the oracle" true
    (blocking.Contentionbench.cr_consults > 0);
  Alcotest.(check bool) "non-blocking consults per committed tx strictly lower" true
    (nonblocking.Contentionbench.cr_consults_per_tx
    < blocking.Contentionbench.cr_consults_per_tx)

(* The work-counter gate ({!Workbench}) at tiny options: the counts
   rerun exactly, and [check] fails on exactly the changes it gates. *)
let tiny_opts =
  {
    Workbench.default_opts with
    Workbench.wk_small = 200;
    wk_large = 1_000;
    wk_clients = 4;
    wk_duration = 120_000.0;
    wk_paging_reads = 200;
  }

let tiny_work = lazy (Workbench.run tiny_opts)

let work_counts (r : Workbench.result) =
  ( List.map
      (fun a -> (a.Workbench.a_name, a.Workbench.a_ops, a.Workbench.a_counts))
      (r.Workbench.w_kinds :: r.Workbench.w_arms),
    r.Workbench.w_fingerprint )

let test_work_deterministic () =
  let r = Lazy.force tiny_work in
  Alcotest.(check bool) "in-run rerun matched" true r.Workbench.w_deterministic;
  Alcotest.(check bool) "every arm completed ops" true
    (List.for_all (fun a -> a.Workbench.a_ops > 0) r.Workbench.w_arms);
  Alcotest.(check bool) "rerun gives the same counters and fingerprint" true
    (work_counts r = work_counts (Workbench.run tiny_opts))

(* [f] applied to the count [k] of the first arm *)
let with_count k f (r : Workbench.result) =
  match r.Workbench.w_arms with
  | a :: rest ->
      let a' =
        {
          a with
          Workbench.a_counts =
            List.map (fun (k', n) -> (k', if k' = k then f n else n)) a.Workbench.a_counts;
        }
      in
      { r with Workbench.w_arms = a' :: rest }
  | [] -> Alcotest.fail "no arms"

let test_work_check_self () =
  let r = Lazy.force tiny_work in
  Alcotest.(check (list string)) "passes against itself" [] (Workbench.check ~baseline:r r);
  let doc =
    Printf.sprintf "{\"experiment\": \"work\", \"seed\": %d, %s}"
      r.Workbench.w_opts.Workbench.wk_seed
      (String.concat ", " (Workbench.to_json r))
  in
  let committed = Workbench.of_json (Weaver_util.Json.parse_exn doc) in
  Alcotest.(check (list string)) "passes against its own JSON" [] (Workbench.check ~baseline:committed r)

let test_work_check_rise () =
  let r = Lazy.force tiny_work in
  let name = (List.hd r.Workbench.w_arms).Workbench.a_name in
  match Workbench.check ~baseline:(with_count "engine.events" pred r) r with
  | [ msg ] ->
      Alcotest.(check bool) ("names the arm and counter: " ^ msg) true
        (String.starts_with ~prefix:(name ^ " engine.events/op rose") msg)
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_work_check_fingerprint () =
  let r = Lazy.force tiny_work in
  let c, a, tc, pc, ms, nm = r.Workbench.w_fingerprint in
  let baseline = { r with Workbench.w_fingerprint = (c, a, tc, pc, ms + 1, nm) } in
  Alcotest.(check int) "fingerprint change fails" 1
    (List.length (Workbench.check ~baseline r));
  Alcotest.(check int) "diverged rerun fails" 1
    (List.length (Workbench.check ~baseline:r { r with Workbench.w_deterministic = false }));
  Alcotest.(check int) "swept/round growth above the bound fails" 1
    (List.length
       (Workbench.check ~baseline:r
          { r with Workbench.w_swept_growth = Workbench.max_swept_growth +. 0.1 }))

let test_work_check_fall () =
  let r = Lazy.force tiny_work in
  Alcotest.(check (list string)) "a falling count passes" []
    (Workbench.check ~baseline:(with_count "engine.events" succ r) r)

let suites =
  [
    ( "scenarios",
      [
        Alcotest.test_case "sweep deterministic" `Quick test_sweep;
        Alcotest.test_case "contention deterministic" `Quick test_contention;
        Alcotest.test_case "snapshot deterministic" `Quick test_snapshot;
        Alcotest.test_case "rebalance deterministic" `Quick test_rebalance;
        Alcotest.test_case "replication deterministic" `Quick test_replication;
        Alcotest.test_case "mixed deterministic" `Quick test_mixed;
        Alcotest.test_case "contention quick-look shows refinement" `Quick
          test_contention_quick_look;
        Alcotest.test_case "work deterministic" `Quick test_work_deterministic;
        Alcotest.test_case "work check passes on itself" `Quick test_work_check_self;
        Alcotest.test_case "work check names a risen count" `Quick test_work_check_rise;
        Alcotest.test_case "work check fingerprint/rerun/growth" `Quick
          test_work_check_fingerprint;
        Alcotest.test_case "work check passes a falling count" `Quick test_work_check_fall;
      ] );
  ]
