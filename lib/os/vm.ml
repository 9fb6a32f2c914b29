open Wsc_substrate

type addr = int

type hugepage_state = {
  mutable huge : bool;  (* false once broken by subrelease *)
  mutable subreleased_pages : int;
}

type mmap_failure = Transient_fault | Hard_limit_exceeded

exception Mmap_failed of mmap_failure

type t = {
  mutable next_addr : addr;
  hugepages : (addr, hugepage_state) Hashtbl.t;  (* keyed by hugepage base *)
  mutable mmap_calls : int;
  mutable munmap_calls : int;
  mutable subrelease_calls : int;
  mutable reclaim_calls : int;
  (* Incremental aggregates so per-epoch sampling stays O(1). *)
  mutable mapped_count : int;
  mutable huge_count : int;
  mutable subreleased_total : int;
  (* Memory-pressure model: per-process limits plus external hooks. *)
  mutable soft_limit : int option;
  mutable hard_limit : int option;
  mutable fault_hook : (bytes:int -> bool) option;
  mutable pressure_hook : (unit -> int) option;
  mutable mmap_failures : int;
  mutable mmap_failures_transient : int;
  mutable mmap_failures_limit : int;
}

let hugepage_size = Units.hugepage_size
let page_size = Units.tcmalloc_page_size
let hugepage_base a = a - (a mod hugepage_size)

let create () =
  {
    (* Start away from 0 so address 0 never aliases a valid object. *)
    next_addr = 16 * hugepage_size;
    hugepages = Hashtbl.create 1024;
    mmap_calls = 0;
    munmap_calls = 0;
    subrelease_calls = 0;
    reclaim_calls = 0;
    mapped_count = 0;
    huge_count = 0;
    subreleased_total = 0;
    soft_limit = None;
    hard_limit = None;
    fault_hook = None;
    pressure_hook = None;
    mmap_failures = 0;
    mmap_failures_transient = 0;
    mmap_failures_limit = 0;
  }

let set_soft_limit t limit =
  (match limit with
  | Some b when b <= 0 -> invalid_arg "Vm.set_soft_limit: limit must be positive"
  | _ -> ());
  t.soft_limit <- limit

let set_hard_limit t limit =
  (match limit with
  | Some b when b <= 0 -> invalid_arg "Vm.set_hard_limit: limit must be positive"
  | _ -> ());
  t.hard_limit <- limit

let hard_limit t = t.hard_limit
let set_fault_hook t hook = t.fault_hook <- hook
let set_pressure_hook t hook = t.pressure_hook <- hook

let external_pressure_bytes t =
  match t.pressure_hook with None -> 0 | Some f -> max 0 (f ())

let resident_bytes_internal t =
  (t.mapped_count * hugepage_size) - (t.subreleased_total * page_size)

let soft_limit_excess t =
  match t.soft_limit with
  | None -> 0
  | Some soft -> max 0 (resident_bytes_internal t + external_pressure_bytes t - soft)

let fail t reason =
  t.mmap_failures <- t.mmap_failures + 1;
  (match reason with
  | Transient_fault -> t.mmap_failures_transient <- t.mmap_failures_transient + 1
  | Hard_limit_exceeded -> t.mmap_failures_limit <- t.mmap_failures_limit + 1);
  raise (Mmap_failed reason)

let mmap t ~hugepages =
  if hugepages <= 0 then invalid_arg "Vm.mmap: hugepages must be positive";
  let bytes = hugepages * hugepage_size in
  (match t.fault_hook with
  | Some hook when hook ~bytes -> fail t Transient_fault
  | Some _ | None -> ());
  (match t.hard_limit with
  | Some limit
    when resident_bytes_internal t + external_pressure_bytes t + bytes > limit ->
    fail t Hard_limit_exceeded
  | Some _ | None -> ());
  let base = t.next_addr in
  t.next_addr <- base + (hugepages * hugepage_size);
  for i = 0 to hugepages - 1 do
    Hashtbl.replace t.hugepages
      (base + (i * hugepage_size))
      { huge = true; subreleased_pages = 0 }
  done;
  t.mapped_count <- t.mapped_count + hugepages;
  t.huge_count <- t.huge_count + hugepages;
  t.mmap_calls <- t.mmap_calls + 1;
  base

let munmap t addr ~hugepages =
  if addr mod hugepage_size <> 0 then invalid_arg "Vm.munmap: misaligned address";
  for i = 0 to hugepages - 1 do
    let hp = addr + (i * hugepage_size) in
    match Hashtbl.find_opt t.hugepages hp with
    | None -> invalid_arg "Vm.munmap: range not mapped"
    | Some s ->
      t.mapped_count <- t.mapped_count - 1;
      if s.huge then t.huge_count <- t.huge_count - 1;
      t.subreleased_total <- t.subreleased_total - s.subreleased_pages;
      Hashtbl.remove t.hugepages hp
  done;
  t.munmap_calls <- t.munmap_calls + 1

let state_exn t addr op =
  match Hashtbl.find_opt t.hugepages (hugepage_base addr) with
  | Some s -> s
  | None -> invalid_arg (op ^ ": hugepage not mapped")

let pages_per_hugepage = hugepage_size / page_size

let subrelease t addr ~pages =
  if pages <= 0 then invalid_arg "Vm.subrelease: pages must be positive";
  let s = state_exn t addr "Vm.subrelease" in
  if s.huge then begin
    s.huge <- false;
    t.huge_count <- t.huge_count - 1
  end;
  let before = s.subreleased_pages in
  s.subreleased_pages <- min pages_per_hugepage (s.subreleased_pages + pages);
  t.subreleased_total <- t.subreleased_total + (s.subreleased_pages - before);
  t.subrelease_calls <- t.subrelease_calls + 1

let reclaim t addr ~pages =
  if pages <= 0 then invalid_arg "Vm.reclaim: pages must be positive";
  let s = state_exn t addr "Vm.reclaim" in
  let before = s.subreleased_pages in
  s.subreleased_pages <- max 0 (s.subreleased_pages - pages);
  t.subreleased_total <- t.subreleased_total - (before - s.subreleased_pages);
  t.reclaim_calls <- t.reclaim_calls + 1

let is_mapped t addr = Hashtbl.mem t.hugepages (hugepage_base addr)

let is_huge_backed t addr =
  match Hashtbl.find_opt t.hugepages (hugepage_base addr) with
  | Some s -> s.huge
  | None -> false

let mapped_bytes t = t.mapped_count * hugepage_size
let resident_bytes t = resident_bytes_internal t
let huge_backed_bytes t = t.huge_count * hugepage_size

let mmap_calls t = t.mmap_calls
let munmap_calls t = t.munmap_calls
let subrelease_calls t = t.subrelease_calls
let reclaim_calls t = t.reclaim_calls
let mmap_failures t = t.mmap_failures
let transient_mmap_failures t = t.mmap_failures_transient
let limit_mmap_failures t = t.mmap_failures_limit

let iter_hugepages t f =
  Hashtbl.iter
    (fun base s -> f ~base ~huge:s.huge ~subreleased_pages:s.subreleased_pages)
    t.hugepages
