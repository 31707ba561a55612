(* Exportable convergence timelines.

   A sink samples the sim's whole metrics registry every interval of
   *simulated* time, and [finish] appends a final snapshot (the settled
   state) and writes the file in the format implied by its extension.
   Because snapshots contain only simulated-time-driven series (wall-clock
   profiling lives outside the registry), identical seeds produce
   byte-identical files.

   The tricky part of sampling is termination: experiments run the
   scheduler until the queue drains (Network.settle), so an
   unconditionally self-rescheduling tick would keep the queue non-empty
   forever.  A tick that finds nothing else queued — the simulation has
   converged — therefore goes dormant, and Sim.on_wake resumes sampling
   when new work arrives (the next measurement phase of the same
   experiment). *)

type format = Prometheus | Jsonl | Csv

let format_to_string = function
  | Prometheus -> "prometheus"
  | Jsonl -> "jsonl"
  | Csv -> "csv"

let format_of_path path =
  match String.rindex_opt path '.' with
  | None -> Jsonl
  | Some i -> (
    match String.lowercase_ascii (String.sub path (i + 1) (String.length path - i - 1)) with
    | "prom" | "txt" -> Prometheus
    | "csv" -> Csv
    | _ -> Jsonl)

type t = {
  sim : Engine.Sim.t;
  path : string;
  format : format;
  interval : Engine.Time.span;
  mutable snapshots : Engine.Metrics.snapshot list; (* newest first *)
  mutable dormant : bool;
  mutable finished : bool; (* also stops sampling *)
}

let default_interval = Engine.Time.sec 1

let snapshot_now t =
  Engine.Metrics.snapshot (Engine.Sim.metrics t.sim) ~at:(Engine.Sim.now t.sim)

let rec tick t () =
  if not t.finished then begin
    t.snapshots <- snapshot_now t :: t.snapshots;
    (* Our own event has been popped already: pending > 0 means real work
       remains, so the timeline should keep sampling. *)
    if Engine.Sim.pending t.sim > 0 then arm t else t.dormant <- true
  end

and arm t =
  ignore (Engine.Sim.schedule_after ~category:"telemetry.sample" t.sim t.interval (tick t))

let create ?(interval = default_interval) ~sim ~path () =
  if Engine.Time.to_us interval <= 0 then
    invalid_arg "Telemetry.create: interval must be positive";
  let t =
    {
      sim;
      path;
      format = format_of_path path;
      interval;
      snapshots = [];
      dormant = false;
      finished = false;
    }
  in
  Engine.Sim.on_wake sim (fun () ->
      if (not t.finished) && t.dormant then begin
        t.dormant <- false;
        arm t
      end);
  arm t;
  t

let snapshots t = List.rev t.snapshots

let render t =
  let snaps = snapshots t in
  match t.format with
  (* Exposition format is point-in-time: export the final state only. *)
  | Prometheus -> (
    match List.rev snaps with
    | last :: _ -> Engine.Metrics.to_prometheus last
    | [] -> "")
  | Jsonl -> String.concat "" (List.map Engine.Metrics.to_jsonl snaps)
  | Csv ->
    Engine.Metrics.csv_header
    ^ String.concat "" (List.map (Engine.Metrics.to_csv ~header:false) snaps)

(* Stop sampling and append the final snapshot exactly once: [finished]
   guards the append, so any number of [close]/[finish] calls after the
   first leave the snapshot list untouched. *)
let close t =
  if not t.finished then begin
    t.finished <- true;
    let final = snapshot_now t in
    (* Skip the duplicate when the last periodic sample already landed on
       the final instant. *)
    match t.snapshots with
    | last :: _ when Engine.Time.equal last.Engine.Metrics.at final.Engine.Metrics.at -> ()
    | _ -> t.snapshots <- final :: t.snapshots
  end

let closed t = t.finished

(* [close], then write the file.  Filesystem failures (missing directory,
   permissions, full disk) come back as [Error] instead of escaping as
   [Sys_error]; the collected snapshots survive for a retry at another
   path.  Idempotent on success: later calls rewrite the same content. *)
let finish t =
  close t;
  match open_out t.path with
  | exception Sys_error msg -> Error msg
  | oc -> (
    match
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (render t))
    with
    | () -> Ok (List.length t.snapshots)
    | exception Sys_error msg -> Error msg)

(* --- Validation ----------------------------------------------------------
   Self-contained checks used by `hybridsim metrics --check` and the smoke
   target, so emitted files are verified without external tooling. *)

let non_empty_lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

(* Validate [text] as [format]; [Ok n] reports the number of samples (or
   rows) checked. *)
let validate format text =
  match format with
  | Prometheus ->
    Result.map List.length (Engine.Metrics.parse_prometheus text)
  | Jsonl ->
    let lines = non_empty_lines text in
    let rec check i = function
      | [] -> Ok (List.length lines)
      | l :: rest -> (
        match Engine.Json.parse l with
        | Engine.Json.Obj _ -> check (i + 1) rest
        | _ -> Error (Fmt.str "line %d: not a JSON object" i)
        | exception Engine.Json.Parse_error msg -> Error (Fmt.str "line %d: invalid JSON (%s)" i msg))
    in
    check 1 lines
  | Csv -> (
    match non_empty_lines text with
    | [] -> Error "empty file"
    | header :: rows ->
      if header ^ "\n" <> Engine.Metrics.csv_header then
        Error (Fmt.str "unexpected header %S" header)
      else Ok (List.length rows))

let validate_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  validate (format_of_path path) text
