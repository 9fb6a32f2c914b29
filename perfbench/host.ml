(* The host and build every result was measured on. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec loop acc =
      match input_line ic with
      | line -> loop (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    loop []

let field_value line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let cpu_model () =
  match List.find_opt (starts_with ~prefix:"model name") (read_lines "/proc/cpuinfo") with
  | Some line -> field_value line
  | None -> "unknown"

(* Peak resident set of this process, from /proc/self/status (kB). *)
let vm_hwm_mib () =
  match List.find_opt (starts_with ~prefix:"VmHWM:") (read_lines "/proc/self/status") with
  | Some line -> (
    match String.split_on_char ' ' (field_value line) with
    | kb :: _ -> ( try float_of_string kb /. 1024.0 with Failure _ -> 0.0)
    | [] -> 0.0)
  | None -> 0.0

let profile = Build_info.profile

(* The dev profile compiles without cross-module inlining, which the
   event-loop hot path depends on: its wall-clock numbers are not
   comparable with release builds and must never become a baseline. *)
let wallclock_trusted = profile = "release"

let revision () =
  match Sys.getenv_opt "PERFBENCH_REV" with Some r when r <> "" -> r | _ -> "unknown"

let record ~seed =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.String (cpu_model ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("dune_profile", Json.String profile);
      ("wallclock_trusted", Json.Bool wallclock_trusted);
      ("revision", Json.String (revision ()));
      ("seed", Json.Int seed);
    ]
