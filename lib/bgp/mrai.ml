(* The outbound UPDATE queue of one BGP session: a router peer or a
   cluster-speaker session.

   Packing: changes enqueued while the owner's batch scope is open wait
   for the outermost scope to close and then leave as one UPDATE per
   queue, queues in ascending rank.  Later changes for the same prefix
   replace earlier ones, so only the latest state is ever sent.  Outside
   a scope every change leaves at once.

   Pacing (matching Quagga's MinRouteAdvertisementInterval), only for a
   queue created with [pace]: the first advertisement after an idle
   period goes out at once and arms the timer; while the timer runs,
   changes coalesce in the pending set; on expiry the pending set is
   flushed as one UPDATE and the timer re-arms only if something was
   flushed.  Explicit withdrawals bypass the timer unless
   [mrai_on_withdrawals] is set.  A queue without [pace] only packs: it
   never arms a timer, draws no jitter and touches no metric. *)

module Pm = Net.Ipv4.Prefix_map
module Ps = Net.Ipv4.Prefix_set

type pending = Announce of Attrs.t | Withdraw

type pace = { sim : Engine.Sim.t; rng : Engine.Rng.t; config : Config.t; name : string }

type pacer = {
  pace : pace;
  timer : Engine.Timer.t;
  deferrals_c : Engine.Metrics.Counter.t;
  flushes_c : Engine.Metrics.Counter.t;
}

type t = {
  batch : batch;
  rank : int;
  send : Message.update -> unit;
  pacer : pacer option;
  mutable pending : pending Pm.t;
  (* MRAI-exempt withdrawals awaiting the end-of-event flush: sent even
     while the timer runs, without touching it. *)
  mutable urgent : Ps.t;
  (* Set on the first enqueue inside a scope, when the queue joins its
     batch's dirty list; cleared by [flush_event]. *)
  mutable dirty : bool;
}

and batch = { mutable depth : int; mutable dirty_queues : t list }

let batch () = { depth = 0; dirty_queues = [] }

let split_pending pending =
  let announced, withdrawn =
    Pm.fold
      (fun prefix p (ann, wd) ->
        match p with
        | Announce attrs -> ((prefix, attrs) :: ann, wd)
        | Withdraw -> (ann, prefix :: wd))
      pending ([], [])
  in
  (List.rev announced, List.rev withdrawn)

let arm p = Engine.Timer.start p.timer (Config.jittered_mrai p.pace.config p.pace.rng)

(* Timer expiry: flush what the interval held back. *)
let expire t =
  match t.pacer with
  | Some p when not (Pm.is_empty t.pending) ->
    let announced, withdrawn = split_pending t.pending in
    t.pending <- Pm.empty;
    Engine.Metrics.Counter.inc p.flushes_c;
    t.send { Message.announced; withdrawn };
    arm p
  | Some _ | None -> ()

let is_throttled t =
  match t.pacer with Some p -> Engine.Timer.is_armed p.timer | None -> false

(* End-of-event flush: everything enqueued within the current scheduler
   event leaves as one packed UPDATE.  While the MRAI timer runs only the
   exempt withdrawals go out (the pending set stays for timer expiry);
   otherwise pending and exempt changes share the message, and a paced
   queue counts the flush and arms its timer only when throttle-subject
   changes went out — an urgent-only message never starts an MRAI
   interval. *)
let flush_event t =
  t.dirty <- false;
  if is_throttled t then begin
    if not (Ps.is_empty t.urgent) then begin
      let withdrawn = Ps.elements t.urgent in
      t.urgent <- Ps.empty;
      t.send { Message.announced = []; withdrawn }
    end
  end
  else if not (Pm.is_empty t.pending && Ps.is_empty t.urgent) then begin
    let announced, withdrawn = split_pending t.pending in
    let withdrawn =
      List.merge Net.Ipv4.compare_prefix withdrawn (Ps.elements t.urgent)
    in
    let paced = if Pm.is_empty t.pending then None else t.pacer in
    t.pending <- Pm.empty;
    t.urgent <- Ps.empty;
    Option.iter (fun p -> Engine.Metrics.Counter.inc p.flushes_c) paced;
    t.send { Message.announced; withdrawn };
    Option.iter arm paced
  end

let with_batch b f =
  b.depth <- b.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      b.depth <- b.depth - 1;
      match b.dirty_queues with
      | _ :: _ as dirty when b.depth = 0 ->
        b.dirty_queues <- [];
        (* A queue reset and dirtied again inside the scope is listed
           twice; one flush covers both. *)
        List.iter flush_event (List.sort_uniq (fun a b -> Int.compare a.rank b.rank) dirty)
      | _ -> ())
    f

let mark_dirty t =
  if not t.dirty then
    if t.batch.depth = 0 then flush_event t
    else begin
      t.dirty <- true;
      t.batch.dirty_queues <- t :: t.batch.dirty_queues
    end

let create ?pace batch ~rank ~send =
  let pacer self (pace : pace) =
    (* All paced queues share the same unlabeled series — idempotent
       registration returns the same handle each time. *)
    let m = Engine.Sim.metrics pace.sim in
    {
      pace;
      timer =
        Engine.Timer.create ~category:"bgp.mrai" pace.sim ~name:pace.name ~callback:(fun () ->
            Option.iter expire !self);
      deferrals_c =
        Engine.Metrics.counter m ~help:"route changes deferred by a running MRAI timer"
          "bgp_mrai_deferrals_total";
      flushes_c =
        Engine.Metrics.counter m ~help:"batched UPDATE flushes" "bgp_mrai_flushes_total";
    }
  in
  (* The timer callback needs the queue and the queue needs the timer;
     tie the knot through a reference. *)
  let self = ref None in
  let t =
    {
      batch;
      rank;
      send;
      pacer = Option.map (pacer self) pace;
      pending = Pm.empty;
      urgent = Ps.empty;
      dirty = false;
    }
  in
  self := Some t;
  t

let pending_count t = Pm.cardinal t.pending

(* A throttle-subject change: deferred while the timer runs, otherwise
   due at the end of the event. *)
let subject t =
  match t.pacer with
  | Some p when Engine.Timer.is_armed p.timer -> Engine.Metrics.Counter.inc p.deferrals_c
  | Some _ | None -> mark_dirty t

let enqueue_announce t prefix attrs =
  t.pending <- Pm.add prefix (Announce attrs) t.pending;
  t.urgent <- Ps.remove prefix t.urgent;
  subject t

let enqueue_withdraw t prefix =
  match t.pacer with
  | Some p when not p.pace.config.Config.mrai_on_withdrawals ->
    (* Withdrawals are exempt from MRAI: cancel any pending announcement
       for the prefix and send the withdrawal at end of event, leaving
       the timer state untouched. *)
    t.pending <- Pm.remove prefix t.pending;
    t.urgent <- Ps.add prefix t.urgent;
    mark_dirty t
  | Some _ | None ->
    t.pending <- Pm.add prefix Withdraw t.pending;
    t.urgent <- Ps.remove prefix t.urgent;
    subject t

(* Session reset: drop pending state and stop the timer. *)
let reset t =
  t.pending <- Pm.empty;
  t.urgent <- Ps.empty;
  t.dirty <- false;
  Option.iter (fun p -> Engine.Timer.cancel p.timer) t.pacer

(* Checkpointing.  A paced queue's jitter stream position travels with
   its armed expiry so a restored run draws the same MRAI intervals the
   original would have. *)
type state = {
  s_pending : (Net.Ipv4.prefix * pending) list;
  s_timer : (Engine.Time.t option * Engine.Rng.t) option;
}

let state t =
  {
    s_pending = Pm.bindings t.pending;
    s_timer =
      Option.map
        (fun p -> (Engine.Timer.due p.timer, Engine.Rng.copy p.pace.rng))
        t.pacer;
  }

let restore t st =
  (* Checkpoints are taken between scheduler events, where the urgent set
     is always empty and no flush is outstanding. *)
  t.urgent <- Ps.empty;
  t.dirty <- false;
  t.pending <-
    List.fold_left (fun acc (prefix, p) -> Pm.add prefix p acc) Pm.empty st.s_pending;
  match (t.pacer, st.s_timer) with
  | Some p, Some (due, rng) -> (
    Engine.Rng.assign ~from:rng p.pace.rng;
    match due with
    | Some at -> Engine.Timer.start_at p.timer at
    | None -> Engine.Timer.cancel p.timer)
  | _ -> ()
