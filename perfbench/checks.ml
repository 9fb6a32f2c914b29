(* Output checks.  Each is a plain function of the outputs it compares,
   so the self-test can hand it one deliberately wrong output and confirm
   it fails; a check that cannot fail proves nothing. *)

open Common
module Audit = Wsc_tcmalloc.Audit
module Campaign = Wsc_fleet.Campaign

let digests_equal name ~expected ~actual =
  expect name (expected = actual)
    (if expected = actual then expected else Printf.sprintf "expected %s, got %s" expected actual)

let audit_clean (r : Audit.report) =
  expect "final Backend.audit is clean" (Audit.is_clean r)
    (Printf.sprintf "%d violation(s)" (List.length r.Audit.violations))

(* Byte identity of two files' contents, reporting the first difference. *)
let bytes_identical name a b =
  if String.equal a b then ok name (Printf.sprintf "%d bytes" (String.length a))
  else
    let n = min (String.length a) (String.length b) in
    let rec first i = if i < n && a.[i] = b.[i] then first (i + 1) else i in
    fail name
      (Printf.sprintf "lengths %d/%d, first difference at byte %d" (String.length a)
         (String.length b) (first 0))

let heap_stats_equal name ~expected ~actual =
  let e = heap_stats_line expected and a = heap_stats_line actual in
  expect name (e = a) (if e = a then e else Printf.sprintf "expected [%s], got [%s]" e a)

let aggregate_equal name ~expected ~actual =
  if String.equal expected actual then
    ok name (Printf.sprintf "%d lines" (List.length (String.split_on_char '\n' expected)))
  else
    let el = String.split_on_char '\n' expected and al = String.split_on_char '\n' actual in
    let rec first i = function
      | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, x, "<missing>")
      | [], y :: _ -> (i, "<missing>", y)
      | [], [] -> (i, "", "")
    in
    let line, x, y = first 1 (el, al) in
    fail name (Printf.sprintf "line %d: expected %S, got %S" line x y)

(* The committed digest for this seed, when there is one. *)
let reference ~workload ~seed ~actual =
  match Reference.digest ~workload ~seed with
  | None -> []
  | Some expected ->
    [ digests_equal (Printf.sprintf "digest matches the committed reference for seed %d" seed)
        ~expected ~actual ]

(* Self-test: run [check] on a wrong output; it must fail. *)
let fires name (c : check) =
  expect ("self-test: " ^ name) (not c.ok)
    (if c.ok then "the check passed a wrong output" else "fails on a wrong output: " ^ c.detail)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let bump_resident (h : Malloc.heap_stats) =
  { h with Malloc.resident_bytes = h.Malloc.resident_bytes + 1 }

let alter_line text =
  match String.split_on_char '\n' text with
  | first :: rest -> String.concat "\n" ((first ^ " ") :: rest)
  | [] -> text ^ " "

let with_violation (r : Audit.report) =
  {
    r with
    Audit.violations =
      { Audit.check = "byte-conservation"; detail = "self-test violation" } :: r.Audit.violations;
  }
