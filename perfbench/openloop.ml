(* Open-loop load generator: independent users arrive on a Poisson
   schedule in virtual time, each issuing one operation through a client
   session, whether or not earlier operations have finished. Every
   operation is timed from its due time. Arrivals are engine events that
   chain themselves, so the schedule is fixed by the seed alone and slicing
   the run into several [Engine.run] calls cannot change it. *)

open Weaver
module Runtime = Weaver_core.Runtime

type kind = Read | Write

type op =
  | Prog of {
      prog : string;
      params : Progval.t;
      start : string;
      at : Vclock.t option;
      check : Progval.t -> bool;  (** is the result correct? *)
      on_error : string -> unit;
    }
  | Tx of {
      build : Client.Tx.tx -> unit;
      on_result : (unit, string) result -> unit;
    }

type sample = {
  kind : kind;
  due : float;  (** virtual µs the user arrived *)
  mutable fin : float;  (** virtual µs of the reply; [nan] while outstanding *)
  mutable err : string option;
  mutable req : int;  (** request id = trace id ([Client.last_request_id]) *)
}

type phase = {
  p_stop : float;  (** arrivals stop here *)
  mutable samples : sample list;  (** newest first *)
  mutable wrong : int;  (** replies that failed their correctness check *)
}

let kind_of = function Prog _ -> Read | Tx _ -> Write

let issue cluster client phase s op =
  let now () = Cluster.now cluster in
  (match op with
  | Prog p ->
      Client.run_program_async client ~prog:p.prog ~params:p.params ~starts:[ p.start ]
        ?at:p.at
        ~on_result:(fun r ->
          s.fin <- now ();
          match r with
          | Ok v -> if not (p.check v) then phase.wrong <- phase.wrong + 1
          | Error e ->
              s.err <- Some e;
              p.on_error e)
        ()
  | Tx t ->
      let tx = Client.Tx.begin_ client in
      t.build tx;
      Client.commit_async client tx ~on_result:(fun r ->
          s.fin <- now ();
          (match r with Ok () -> () | Error e -> s.err <- Some e);
          t.on_result r));
  s.req <- Client.last_request_id client

(* Schedule Poisson arrivals at [rate] ops per virtual second over
   [start, start + window); each draws its operation from [gen] when it
   fires and goes to the next client of [clients] in turn. *)
let schedule cluster ~clients ~rng ~gen ~rate ~start ~window =
  let engine = (Cluster.runtime cluster).Runtime.engine in
  let phase = { p_stop = start +. window; samples = []; wrong = 0 } in
  let mean = 1e6 /. rate in
  let turn = ref 0 in
  let rec arrive due () =
    let op = gen () in
    let s = { kind = kind_of op; due; fin = nan; err = None; req = 0 } in
    phase.samples <- s :: phase.samples;
    let client = clients.(!turn mod Array.length clients) in
    incr turn;
    issue cluster client phase s op;
    let next = due +. Xrand.exponential rng ~mean in
    if next < phase.p_stop then Engine.schedule_at engine ~time:next (arrive next)
  in
  let first = start +. Xrand.exponential rng ~mean in
  if first < phase.p_stop then Engine.schedule_at engine ~time:first (arrive first);
  phase

let completed s = not (Float.is_nan s.fin)
let succeeded s = completed s && Option.is_none s.err
let latency s = s.fin -. s.due
