type event =
  | Alloc of { id : int; size : int; cpu : int }
  | Free of { id : int; cpu : int }
  | Advance of { dt_ns : float }
  | Retire of { cpu : int; flush : bool }

(* --- Text v1 line format ----------------------------------------------- *)

let line_of_event = function
  | Alloc { id; size; cpu } -> Printf.sprintf "a %d %d %d" id size cpu
  | Free { id; cpu } -> Printf.sprintf "f %d %d" id cpu
  | Advance { dt_ns } -> Printf.sprintf "t %.17g" dt_ns
  | Retire { cpu; flush } -> Printf.sprintf "r %d %d" cpu (if flush then 1 else 0)

let parse_line ~fail line =
  match String.split_on_char ' ' line with
  | [ "a"; id; size; cpu ] -> (
    match (int_of_string_opt id, int_of_string_opt size, int_of_string_opt cpu) with
    | Some id, Some size, Some cpu -> Alloc { id; size; cpu }
    | _ -> fail ())
  | [ "f"; id; cpu ] -> (
    match (int_of_string_opt id, int_of_string_opt cpu) with
    | Some id, Some cpu -> Free { id; cpu }
    | _ -> fail ())
  | [ "t"; dt ] -> (
    match float_of_string_opt dt with
    | Some dt_ns -> Advance { dt_ns }
    | None -> fail ())
  | [ "r"; cpu; flush ] -> (
    match (int_of_string_opt cpu, int_of_string_opt flush) with
    | Some cpu, Some flush -> Retire { cpu; flush = flush <> 0 }
    | _ -> fail ())
  | _ -> fail ()
