(** Minimal JSON: a value tree, a writer and a strict parser — enough to
    emit benchmark baselines and to check every JSON the repository
    exports (metrics JSONL, Chrome trace-event files) without a JSON
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num : float -> t
(** [Num v], or [Null] for NaN. *)

val to_string : t -> string
(** One line, [", "] and [": "] separators; integral numbers below 1e15
    print without a fraction. *)

exception Parse_error of string

val parse : string -> t
(** The whole string must be one JSON value (surrounding whitespace
    allowed); numbers follow the JSON grammar exactly.
    @raise Parse_error with the byte offset of the first error. *)

val valid : string -> bool
(** [parse] succeeds. *)
