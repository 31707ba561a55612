(* Deterministic discrete-event scheduler.

   Events fire in (time, insertion sequence) order, so two events scheduled
   for the same instant run in the order they were scheduled — this plus the
   splittable RNG makes whole experiment runs bit-reproducible.

   Observability: every event carries a category string; the scheduler
   counts scheduled/executed/reaped events per category in its metrics
   registry (deterministic — safe to export), and, when profiling is
   enabled, additionally accumulates per-category wall-clock self time in
   a separate table that deliberately stays OUT of the registry so metric
   exports remain byte-identical across runs of the same seed. *)

type key = { kclass : int; knode : int; kseq : int }

let default_key = { kclass = 0; knode = 0; kseq = 0 }

type event = {
  fire_at : Time.t;
  seq : int;
  key : key;
  category : string;
  span : int; (* causal span id, -1 when tracing is disabled *)
  mutable cancelled : bool;
  action : unit -> unit;
}

type handle = event

type profile_row = { category : string; events : int; seconds : float }

type prof_cell = { mutable p_events : int; mutable p_seconds : float }

type order = Seq | Canonical

type t = {
  order : order;
  mutable now : Time.t;
  mutable next_seq : int;
  mutable executed : int;
  queue : event Heap.t;
  rng : Rng.t;
  causal : Causal.t;
  metrics : Metrics.t;
  mutable profiling : bool;
  profile : (string, prof_cell) Hashtbl.t;
  scheduled_by : (string, Metrics.Counter.t) Hashtbl.t;
  executed_by : (string, Metrics.Counter.t) Hashtbl.t;
  reaped : Metrics.Counter.t;
  mutable on_wake : (unit -> unit) list; (* newest first *)
}

let compare_event a b =
  let c = Time.compare a.fire_at b.fire_at in
  if c <> 0 then c else compare a.seq b.seq

(* Canonical order is independent of the local scheduling sequence for
   keyed events: cross-shard deliveries carry a (class, node, channel-seq)
   key that every partitioning assigns identically, so the merged event
   order matches the single-shard run regardless of how work was split. *)
let compare_event_canonical a b =
  let c = Time.compare a.fire_at b.fire_at in
  if c <> 0 then c
  else
    let c = compare a.key.kclass b.key.kclass in
    if c <> 0 then c
    else
      let c = compare a.key.knode b.key.knode in
      if c <> 0 then c
      else
        let c = compare a.key.kseq b.key.kseq in
        if c <> 0 then c else compare a.seq b.seq

let dummy_event =
  {
    fire_at = Time.zero;
    seq = -1;
    key = default_key;
    category = "";
    span = -1;
    cancelled = true;
    action = ignore;
  }

let create ?(order = Seq) ?(seed = 0) ?(causal = Causal.Disabled)
    ?(profiling = false) () =
  let metrics = Metrics.create () in
  let cmp = match order with Seq -> compare_event | Canonical -> compare_event_canonical in
  {
    order;
    now = Time.zero;
    next_seq = 0;
    executed = 0;
    queue = Heap.create ~capacity:1024 ~dummy:dummy_event cmp;
    rng = Rng.create seed;
    causal = Causal.create ~mode:causal ~seed ();
    metrics;
    profiling;
    profile = Hashtbl.create 16;
    scheduled_by = Hashtbl.create 16;
    executed_by = Hashtbl.create 16;
    reaped =
      Metrics.counter metrics ~help:"cancelled events reaped from the queue"
        "sim_events_cancelled_total";
    on_wake = [];
  }

let now t = t.now

let order t = t.order

let rng t = t.rng

let causal t = t.causal

let annotate t ~category ?node ?label () =
  Causal.annotate t.causal ~category ?node ?label ~at:t.now ()

let with_span t ~category ?node ?label f =
  Causal.with_span t.causal ~category ?node ?label ~at:t.now f

let metrics t = t.metrics

let pending t = Heap.length t.queue

let executed t = t.executed

let set_profiling t flag = t.profiling <- flag

let profiling t = t.profiling

let profile t =
  Hashtbl.fold
    (fun category cell acc ->
      { category; events = cell.p_events; seconds = cell.p_seconds } :: acc)
    t.profile []
  |> List.sort (fun a b -> String.compare a.category b.category)

(* [on_wake] hooks are consed newest-first; run them in registration
   order without allocating. *)
let rec wake = function
  | [] -> ()
  | f :: older ->
    wake older;
    f ()

let category_counter cache metrics name category =
  match Hashtbl.find_opt cache category with
  | Some c -> c
  | None ->
    let c = Metrics.counter metrics ~labels:[ ("category", category) ] name in
    Hashtbl.replace cache category c;
    c

let schedule_at ?(category = "event") ?(key = default_key) t fire_at action =
  if Time.(fire_at < t.now) then
    invalid_arg
      (Fmt.str "Sim.schedule_at: %a is in the past (now %a)" Time.pp fire_at Time.pp t.now);
  let span = Causal.on_schedule t.causal ~category ~queued_at:t.now in
  let ev = { fire_at; seq = t.next_seq; key; category; span; cancelled = false; action } in
  t.next_seq <- t.next_seq + 1;
  Metrics.Counter.inc
    (category_counter t.scheduled_by t.metrics "sim_events_scheduled_total" category);
  let was_empty = Heap.length t.queue = 0 in
  Heap.push t.queue ev;
  (* Notify after the push so a hook's own scheduling sees a non-empty
     queue and cannot re-trigger the transition. *)
  if was_empty then wake t.on_wake;
  ev

let schedule_after ?category ?key t span action =
  schedule_at ?category ?key t (Time.add t.now span) action

let on_wake t f = t.on_wake <- f :: t.on_wake

let cancel ev = ev.cancelled <- true

let cancelled ev = ev.cancelled

let note_reaped t = Metrics.Counter.inc t.reaped

let run_action t ev =
  if t.profiling then begin
    let t0 = Sys.time () in
    ev.action ();
    let dt = Sys.time () -. t0 in
    let cell =
      match Hashtbl.find_opt t.profile ev.category with
      | Some c -> c
      | None ->
        let c = { p_events = 0; p_seconds = 0.0 } in
        Hashtbl.replace t.profile ev.category c;
        c
    in
    cell.p_events <- cell.p_events + 1;
    cell.p_seconds <- cell.p_seconds +. dt
  end
  else ev.action ()

let execute t ev =
  t.now <- ev.fire_at;
  t.executed <- t.executed + 1;
  Metrics.Counter.inc
    (category_counter t.executed_by t.metrics "sim_events_executed_total" ev.category);
  if Causal.enabled t.causal then begin
    Causal.on_execute t.causal ev.span ~fired_at:ev.fire_at;
    Fun.protect
      ~finally:(fun () -> Causal.clear_current t.causal)
      (fun () -> run_action t ev)
  end
  else run_action t ev

(* Run one event; returns false when the queue is exhausted. *)
let rec step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev when ev.cancelled ->
    note_reaped t;
    step t
  | Some ev ->
    execute t ev;
    true

type run_result = Exhausted | Reached_limit | Reached_time of Time.t

let run ?until ?(max_events = max_int) t =
  let rec loop remaining =
    if remaining = 0 then Reached_limit
    else
      match Heap.peek t.queue with
      | None -> Exhausted
      | Some ev when ev.cancelled ->
        ignore (Heap.pop t.queue);
        note_reaped t;
        loop remaining
      | Some ev -> (
        match until with
        | Some stop when Time.(ev.fire_at > stop) ->
          t.now <- stop;
          Reached_time stop
        | Some _ | None ->
          if step t then loop (remaining - 1) else Exhausted)
  in
  loop max_events

(* Epoch-horizon run for sharded execution: strictly-before semantics, and
   the clock stays at the last executed event so messages injected at the
   barrier (which arrive at or after the horizon) are still in the future. *)
let run_before ?(max_events = max_int) t ~horizon =
  let rec loop remaining =
    if remaining = 0 then Reached_limit
    else
      match Heap.peek t.queue with
      | None -> Exhausted
      | Some ev when ev.cancelled ->
        ignore (Heap.pop t.queue);
        note_reaped t;
        loop remaining
      | Some ev when Time.(ev.fire_at >= horizon) -> Reached_time horizon
      | Some _ -> if step t then loop (remaining - 1) else Exhausted
  in
  loop max_events

let rec next_event_time t =
  match Heap.peek t.queue with
  | None -> None
  | Some ev when ev.cancelled ->
    ignore (Heap.pop t.queue);
    note_reaped t;
    next_event_time t
  | Some ev -> Some ev.fire_at
