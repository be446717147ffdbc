open Weaver_core

type opts = { sw_seed : int }

let default_opts = { sw_seed = 14 }
let duration = 200_000.0
let taus = [ 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0; 1_000_000.0 ]

type result = {
  sw_points : (float * float * float) list;
  sw_fingerprint : (int * int * int) list;
}

let run_tau { sw_seed = seed } tau =
  let cfg = { Config.default with Config.tau; Config.n_shards = 4; Config.seed } in
  let rng = Weaver_util.Xrand.create ~seed () in
  let c, vertices =
    Scenario.install cfg (Graphgen.uniform ~rng ~prefix:"f" ~vertices:1_000 ~edges:8_000 ())
  in
  let r = Tao.Driver.run c ~vertices ~clients:20 ~duration ~read_fraction:0.9 () in
  let ctr = Cluster.counters c in
  (r.Tao.Driver.completed, ctr.Runtime.announce_msgs, ctr.Runtime.oracle_consults)

let run opts =
  let counts = List.map (run_tau opts) taus in
  let per_op n ops = float_of_int n /. float_of_int (max 1 ops) in
  {
    sw_points =
      List.map2
        (fun tau (ops, announces, consults) ->
          (tau, per_op announces ops, per_op consults ops))
        taus counts;
    sw_fingerprint = counts;
  }

let table r =
  String.concat ""
    (Printf.sprintf "%-12s %20s %22s\n" "tau (us)" "announces/query" "oracle msgs/query"
    :: List.map
         (fun (tau, a, o) -> Printf.sprintf "%-12.0f %20.3f %22.3f\n" tau a o)
         r.sw_points)
