open Weaver_core
module Metrics = Weaver_obs.Metrics
module Net = Weaver_sim.Net
module Xrand = Weaver_util.Xrand
module Json = Weaver_util.Json

type opts = {
  wk_seed : int;
  wk_graph_seed : int;
  wk_small : int;
  wk_large : int;
  wk_clients : int;
  wk_duration : float;
  wk_paging_reads : int;
}

let default_opts =
  {
    wk_seed = 11;
    wk_graph_seed = 23;
    wk_small = 2_000;
    wk_large = 100_000;
    wk_clients = 32;
    wk_duration = 400_000.0;
    wk_paging_reads = 5_000;
  }

type arm = {
  a_name : string;
  a_ops : int;
  a_counts : (string * int) list;
  a_minor : float;
  a_promoted : float;
  a_cpu_s : float;
}

type result = {
  w_opts : opts;
  w_arms : arm list;
  w_kinds : arm;
  w_fingerprint : int * int * int * int * int * int;
  w_deterministic : bool;
  w_swept_growth : float;
}

let minor_bound = 0.02
let promoted_bound = 0.05
let max_swept_growth = 1.5

(* registry counters, as perfbench's per-layer metrics read them *)
let registry_counts =
  [ "engine.events"; "net.sent"; "oracle.consults"; "prog.vertices_read"; "paging.page_ins";
    "paging.evictions" ]

let counts c =
  let values = Metrics.int_values (Cluster.metrics c) in
  let rounds, swept =
    List.init (Cluster.config c).Config.n_shards (Cluster.shard_gc_work c)
    |> List.fold_left (fun (r, s) (r', s') -> (r + r', s + s')) (0, 0)
  in
  List.map (fun k -> (k, List.assoc k values)) registry_counts
  @ [ ("gc.rounds", rounds); ("gc.swept", swept) ]

(* Runs [f], the measured window of arm [name], which returns its
   completed ops and a value; counts are deltas over the window and words
   start after a minor collection. *)
let measure c ~name f =
  let before = counts c in
  Gc.minor ();
  let minor0 = Gc.minor_words () and promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t0 = Sys.time () in
  let ops, x = f () in
  let cpu = Sys.time () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let per w = w /. float_of_int (max 1 ops) in
  ( {
      a_name = name;
      a_ops = ops;
      a_counts = List.map2 (fun (k, b) (_, a) -> (k, a - b)) before (counts c);
      a_minor = per minor;
      a_promoted = per promoted;
      a_cpu_s = cpu;
    },
    x )

(* messages by kind, counted from the next send on, beside the
   observability tracer *)
let count_kinds c =
  let kinds = Hashtbl.create 16 in
  let rt = Cluster.runtime c in
  let base = Runtime.obs_net_hook rt in
  Net.set_tracer rt.Runtime.net
    (Some
       (fun ~time ~src ~dst m ->
         let k = Msg.kind m in
         Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k));
         Option.iter (fun h -> h ~time ~src ~dst m) base));
  fun () -> List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds [])

let macro_arm opts ~vertices ~kinds =
  let rng = Xrand.create ~seed:opts.wk_graph_seed () in
  let c, vids =
    Scenario.install
      { Config.default with Config.seed = opts.wk_seed; n_gatekeepers = 2; n_shards = 4 }
      (Graphgen.uniform ~rng ~prefix:"sp" ~vertices ~edges:(2 * vertices) ())
  in
  let by_kind = if kinds then Some (count_kinds c) else None in
  let arm, r =
    measure c ~name:(Printf.sprintf "macro_%d" vertices) (fun () ->
        let r =
          Tao.Driver.run c ~vertices:vids ~clients:opts.wk_clients ~duration:opts.wk_duration ()
        in
        (r.Tao.Driver.completed, r))
  in
  let ctr = Cluster.counters c in
  let fingerprint =
    ( r.Tao.Driver.completed,
      r.Tao.Driver.aborted,
      ctr.Runtime.tx_committed,
      ctr.Runtime.progs_completed,
      Net.messages_sent (Cluster.runtime c).Runtime.net,
      ctr.Runtime.nop_msgs )
  in
  (arm, fingerprint, match by_kind with Some kinds -> kinds () | None -> [])

let paging_arm opts =
  let rng = Xrand.create ~seed:5 () in
  let c, vids =
    Scenario.install
      { Config.default with Config.n_gatekeepers = 1; n_shards = 1; shard_capacity = Some 64 }
      (Graphgen.uniform ~rng ~prefix:"pg" ~vertices:512 ~edges:1_024 ())
  in
  let client = Cluster.client c in
  fst
    (measure c ~name:"paging" (fun () ->
         let ok = ref 0 in
         for _ = 1 to opts.wk_paging_reads do
           match
             Client.run_program client ~prog:"get_node" ~params:Progval.Null
               ~starts:[ Xrand.pick rng vids ] ()
           with
           | Ok _ -> incr ok
           | Error _ -> ()
         done;
         (!ok, ())))

let swept_per_round a =
  float_of_int (List.assoc "gc.swept" a.a_counts)
  /. float_of_int (max 1 (List.assoc "gc.rounds" a.a_counts))

let run opts =
  let small, fingerprint, _ = macro_arm opts ~vertices:opts.wk_small ~kinds:false in
  let large, _, _ = macro_arm opts ~vertices:opts.wk_large ~kinds:false in
  let paging = paging_arm opts in
  let rerun, rerun_fingerprint, kinds = macro_arm opts ~vertices:opts.wk_small ~kinds:true in
  {
    w_opts = opts;
    w_arms = [ small; large; paging ];
    w_kinds = { rerun with a_name = rerun.a_name ^ "_rerun"; a_counts = kinds };
    w_fingerprint = fingerprint;
    w_deterministic =
      rerun_fingerprint = fingerprint && rerun.a_counts = small.a_counts
      && rerun.a_ops = small.a_ops;
    w_swept_growth = swept_per_round large /. Float.max (swept_per_round small) 1e-9;
  }

(* ------------------------------------------------------------------ *)
(* The gate *)

let per_op a n = float_of_int n /. float_of_int (max 1 a.a_ops)

(* count rises, compared exactly: now/ops_now > base/ops_base *)
let count_failures ~(base : arm) (now : arm) =
  List.filter_map
    (fun (k, n) ->
      let b = Option.value ~default:0 (List.assoc_opt k base.a_counts) in
      if n * max 1 base.a_ops > b * max 1 now.a_ops then
        Some
          (Printf.sprintf "%s %s/op rose: %d in %d ops > committed %d in %d (no rise allowed)"
             now.a_name k n now.a_ops b base.a_ops)
      else None)
    now.a_counts

let word_failures ~(base : arm) (now : arm) =
  List.filter_map
    (fun (what, bound, b, n) ->
      if n > b *. (1.0 +. bound) then
        Some
          (Printf.sprintf "%s %s words/op rose: %.1f > committed %.1f + %.0f%%" now.a_name what n b
             (100.0 *. bound))
      else None)
    [ ("minor", minor_bound, base.a_minor, now.a_minor);
      ("promoted", promoted_bound, base.a_promoted, now.a_promoted) ]

let check ~baseline r =
  let arms =
    List.concat_map
      (fun now ->
        match List.find_opt (fun b -> b.a_name = now.a_name) baseline.w_arms with
        | None -> [ Printf.sprintf "%s: no committed arm of that name" now.a_name ]
        | Some base -> count_failures ~base now @ word_failures ~base now)
      r.w_arms
  in
  (if r.w_opts <> baseline.w_opts then [ "options differ from the committed run's" ] else [])
  @ (if r.w_fingerprint <> baseline.w_fingerprint then [ "fingerprint differs from the committed one" ]
   else [])
  @ (if r.w_deterministic then [] else [ "in-process rerun diverged" ])
  @ (if r.w_swept_growth <= max_swept_growth then []
     else
       [ Printf.sprintf "swept/round growth %.2fx above %.1fx" r.w_swept_growth max_swept_growth ])
  @ arms
  @ count_failures ~base:baseline.w_kinds r.w_kinds

(* ------------------------------------------------------------------ *)
(* Output *)

let table r =
  let arms = r.w_arms in
  let row label cell = String.concat "" (Printf.sprintf "%-22s" label :: List.map cell arms) ^ "\n" in
  String.concat ""
    ([ row "per op" (fun a -> Printf.sprintf " %14s" a.a_name);
       row "ops" (fun a -> Printf.sprintf " %14d" a.a_ops) ]
    @ List.map
        (fun (k, _) ->
          row k (fun a -> Printf.sprintf " %14.4f" (per_op a (List.assoc k a.a_counts))))
        (List.hd arms).a_counts
    @ [ row "minor words" (fun a -> Printf.sprintf " %14.1f" a.a_minor);
        row "promoted words" (fun a -> Printf.sprintf " %14.1f" a.a_promoted);
        row "swept/round" (fun a -> Printf.sprintf " %14.3f" (swept_per_round a));
        row "cpu s (not gated)" (fun a -> Printf.sprintf " %14.3f" a.a_cpu_s) ])

let obj fields = "{" ^ String.concat ", " fields ^ "}"
let counts_json f l = obj (List.map (fun (k, n) -> Printf.sprintf "%S: %s" k (f n)) l)

let arm_json a =
  obj
    [ Printf.sprintf "\"arm\": %S" a.a_name;
      Printf.sprintf "\"ops\": %d" a.a_ops;
      Printf.sprintf "\"cpu_s\": %.4f" a.a_cpu_s;
      Printf.sprintf "\"minor_words_per_op\": %.2f" a.a_minor;
      Printf.sprintf "\"promoted_words_per_op\": %.2f" a.a_promoted;
      "\"counts\": " ^ counts_json string_of_int a.a_counts;
      "\"per_op\": " ^ counts_json (fun n -> Printf.sprintf "%.4f" (per_op a n)) a.a_counts ]

let to_json r =
  let o = r.w_opts in
  let c1, a1, tc, pc, ms, nm = r.w_fingerprint in
  [
    Printf.sprintf
      "\"config\": {\"graph_seed\": %d, \"small_vertices\": %d, \"large_vertices\": %d, \
       \"clients\": %d, \"duration_us\": %.0f, \"paging_reads\": %d, \"macro\": \"2 gk / 4 \
       shards, 2 edges per vertex, gc_period %.0f us\", \"paging\": \"1 gk / 1 shard, capacity \
       64, 512 vertices, graph seed 5\"}"
      o.wk_graph_seed o.wk_small o.wk_large o.wk_clients o.wk_duration o.wk_paging_reads
      Config.default.Config.gc_period;
    Printf.sprintf
      "\"bounds\": {\"counts\": 0, \"minor_words\": %.2f, \"promoted_words\": %.2f, \
       \"swept_per_round_growth\": %.1f}"
      minor_bound promoted_bound max_swept_growth;
    "\"note\": \"cpu_s is process CPU time on the machine that ran it and is not gated; words \
     repeat only in a fresh process; every other field is deterministic\"";
    "\"arms\": [\n    " ^ String.concat ",\n    " (List.map arm_json r.w_arms) ^ "\n  ]";
    "\"messages_by_kind\": " ^ arm_json r.w_kinds;
    Printf.sprintf
      "\"fingerprint\": {\"completed\": %d, \"aborted\": %d, \"tx_committed\": %d, \
       \"progs_completed\": %d, \"messages_sent\": %d, \"nop_msgs\": %d}"
      c1 a1 tc pc ms nm;
    Printf.sprintf "\"swept_per_round_growth\": %.3f" r.w_swept_growth;
    Printf.sprintf "\"deterministic_rerun\": %b" r.w_deterministic;
  ]

let of_json j =
  let field k j =
    match Json.member k j with Some v -> v | None -> failwith ("BENCH_work.json: no " ^ k)
  in
  let to_num k v =
    match Json.to_number v with
    | Some x -> x
    | None -> failwith ("BENCH_work.json: " ^ k ^ " is not a number")
  in
  let num k j = to_num k (field k j) in
  let int k j = int_of_float (num k j) in
  let arm j =
    {
      a_name = Option.value ~default:"" (Json.string_member "arm" j);
      a_ops = int "ops" j;
      a_counts =
        (match field "counts" j with
        | Json.Obj l -> List.map (fun (k, v) -> (k, int_of_float (to_num k v))) l
        | _ -> failwith "BENCH_work.json: counts is not an object");
      a_minor = num "minor_words_per_op" j;
      a_promoted = num "promoted_words_per_op" j;
      a_cpu_s = num "cpu_s" j;
    }
  in
  let cfg = field "config" j and fp = field "fingerprint" j in
  {
    w_opts =
      {
        wk_seed = int "seed" j;
        wk_graph_seed = int "graph_seed" cfg;
        wk_small = int "small_vertices" cfg;
        wk_large = int "large_vertices" cfg;
        wk_clients = int "clients" cfg;
        wk_duration = num "duration_us" cfg;
        wk_paging_reads = int "paging_reads" cfg;
      };
    w_arms = List.map arm (Option.value ~default:[] (Json.to_list (field "arms" j)));
    w_kinds = arm (field "messages_by_kind" j);
    w_fingerprint =
      ( int "completed" fp,
        int "aborted" fp,
        int "tx_committed" fp,
        int "progs_completed" fp,
        int "messages_sent" fp,
        int "nop_msgs" fp );
    w_deterministic = field "deterministic_rerun" j = Json.Bool true;
    w_swept_growth = num "swept_per_round_growth" j;
  }
