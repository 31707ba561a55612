(* Exportable convergence timelines.

   A sink couples a periodic Engine.Sampler to an output file: every
   sampling interval of *simulated* time it snapshots the sim's whole
   metrics registry, and [finish] appends a final snapshot (the settled
   state) and writes the file in the format implied by its extension.
   Because snapshots contain only simulated-time-driven series (wall-clock
   profiling lives outside the registry), identical seeds produce
   byte-identical files. *)

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
  mutable snapshots : Engine.Metrics.snapshot list; (* newest first *)
  mutable sampler : Engine.Sampler.t option;
  mutable finished : bool;
}

let default_interval = Engine.Time.sec 1

let create ?(interval = default_interval) ~sim ~path () =
  let t =
    {
      sim;
      path;
      format = format_of_path path;
      snapshots = [];
      sampler = None;
      finished = false;
    }
  in
  t.sampler <-
    Some
      (Engine.Sampler.start sim ~interval ~on_sample:(fun snap ->
           t.snapshots <- snap :: t.snapshots));
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
    Option.iter Engine.Sampler.stop t.sampler;
    let final =
      Engine.Metrics.snapshot (Engine.Sim.metrics t.sim) ~at:(Engine.Sim.now t.sim)
    in
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
