(* Pure helpers of the benchmark: the tail-percentile rule, span self time,
   knee detection on the rate ladder, the offline BFS reference, and small
   statistics. No simulator state in here, so [test_helpers.ml] can pin
   each rule on hand-made inputs. *)

(* ------------------------------------------------------------------ *)
(* Percentiles *)

type pct = {
  q : float;  (** the percentile actually reported, in [0, 100] *)
  value : float;
  n : int;  (** samples *)
  beyond : int;  (** samples ranked above the reported one *)
}

(* Nearest-rank percentile [want], lowered until at least [min_beyond]
   samples rank above the reported one: a p99 of 300 samples would rest on
   three values, so it is reported as the p96.7 with its count instead.
   [None] when there are not even [min_beyond + 1] samples. *)
let tail_percentile ?(min_beyond = 10) samples ~want =
  let n = Array.length samples in
  let rank_want = max 1 (int_of_float (Float.ceil ((want *. float_of_int n /. 100.0) -. 1e-9))) in
  let rank = min rank_want (n - min_beyond) in
  if n = 0 || rank < 1 then None
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Some
      {
        q = 100.0 *. float_of_int rank /. float_of_int n;
        value = sorted.(rank - 1);
        n;
        beyond = n - rank;
      }
  end

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Span self time *)

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part its children cover. *)
let self_time ~start ~stop children =
  Float.max 0.0 (stop -. start -. covered ~lo:start ~hi:stop children)

(* ------------------------------------------------------------------ *)
(* Rate ladder *)

type step = {
  rate : float;  (** offered ops per virtual second *)
  p99_us : float;  (** tail latency of every op of the step *)
  kept_pace : float;  (** share of the judged ops that completed *)
}

(* A step passes when its tail stays within [limit_us] and completions keep
   pace with arrivals ([kept_pace >= min_pace]). Its pressure is how close
   it is to failing on either count, 1.0 being the edge, so the knee can be
   placed between the last passing step and the first failing one by
   linear interpolation rather than snapped to a ladder rung. *)
let pressure ~limit_us ~min_pace s =
  Float.max (s.p99_us /. limit_us) ((1.0 -. s.kept_pace) /. (1.0 -. min_pace))

(* Highest sustainable rate: steps are taken in ascending rate order and
   the ladder stops counting at the first failure. [None] if even the
   first step fails; the top rate if none does. *)
let knee ~limit_us ~min_pace steps =
  let steps = List.sort (fun a b -> Float.compare a.rate b.rate) steps in
  let p = pressure ~limit_us ~min_pace in
  let rec go last = function
    | [] -> Option.map (fun s -> s.rate) last
    | s :: rest when p s <= 1.0 -> go (Some s) rest
    | s :: _ -> (
        match last with
        | None -> None
        | Some l ->
            let pl = p l and ps = p s in
            let frac = if ps > pl then (1.0 -. pl) /. (ps -. pl) else 0.0 in
            Some (l.rate +. (frac *. (s.rate -. l.rate))))
  in
  go None steps

(* ------------------------------------------------------------------ *)
(* Offline BFS reference *)

(* Vertices within [depth] hops of [start] (the start included) over an
   adjacency array — the answer [nhop_count] must give on a graph whose
   edges never change. *)
let bfs_count adj ~start ~depth =
  let n = Array.length adj in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(start) <- 0;
  Queue.push start q;
  let count = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr count;
    if dist.(v) < depth then
      List.iter
        (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.push w q
          end)
        adj.(v)
  done;
  !count
