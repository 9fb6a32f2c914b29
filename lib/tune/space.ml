open Wsc_substrate
module Config = Wsc_tcmalloc.Config

type genome = int array

(* One knob = one gene: a grid of values (every baseline value is a grid
   member, so the paper-default config is exactly representable), an
   applicator into [Config.t], and a gating predicate.  The rival
   backends only read the shared reclaim knobs (verified in
   test_tune.ml), so their searches freeze the TCMalloc-specific genes at
   baseline instead of burning evaluations on no-op dimensions. *)
type knob = {
  k_name : string;
  k_card : int;
  k_baseline : int;  (* grid index of the baseline value *)
  k_shared : bool;  (* read by the rpmalloc/jemalloc models too *)
  k_apply : Config.t -> int -> Config.t;
  k_render : int -> string;
}

let mib = Units.mib
let kib = Units.kib
let sec = Units.sec

let int_knob name ?(shared = false) values baseline apply =
  {
    k_name = name;
    k_card = Array.length values;
    k_baseline = baseline;
    k_shared = shared;
    k_apply = (fun cfg i -> apply cfg values.(i));
    k_render = (fun i -> string_of_int values.(i));
  }

let bytes_knob name ?shared values baseline apply =
  let k = int_knob name ?shared values baseline apply in
  { k with k_render = (fun i -> Units.bytes_to_string values.(i)) }

let bool_knob name baseline apply =
  {
    k_name = name;
    k_card = 2;
    k_baseline = (if baseline then 1 else 0);
    k_shared = false;
    k_apply = (fun cfg i -> apply cfg (i = 1));
    k_render = (fun i -> if i = 1 then "on" else "off");
  }

let interval_knob name values baseline apply =
  {
    k_name = name;
    k_card = Array.length values;
    k_baseline = baseline;
    k_shared = false;
    k_apply = (fun cfg i -> apply cfg values.(i));
    k_render = (fun i -> Units.duration_to_string values.(i));
  }

let intervals = [| 0.25 *. sec; 0.5 *. sec; 1.0 *. sec; 2.0 *. sec; 4.0 *. sec |]

let knobs =
  [|
    bytes_knob "per_cpu_cache_bytes"
      [| 512 * kib; mib; 3 * mib / 2; 2 * mib; 3 * mib; 4 * mib; 6 * mib; 8 * mib |]
      4
      (fun cfg v -> { cfg with Config.per_cpu_cache_bytes = v });
    int_knob "per_cpu_class_cap"
      [| 256; 512; 1024; 2048; 4096 |]
      3
      (fun cfg v -> { cfg with Config.per_cpu_class_cap_objects = v });
    bool_knob "dynamic_cpu_caches" false (fun cfg v ->
        { cfg with Config.dynamic_per_cpu_caches = v });
    bytes_knob "transfer_bytes_per_class"
      [| 16 * kib; 32 * kib; 64 * kib; 128 * kib; 256 * kib |]
      2
      (fun cfg v -> { cfg with Config.transfer_cache_bytes_per_class = v });
    bool_knob "nuca_transfer_cache" false (fun cfg v ->
        { cfg with Config.nuca_aware_transfer_cache = v });
    interval_knob "transfer_release_interval" intervals 2 (fun cfg v ->
        { cfg with Config.transfer_release_interval_ns = v });
    bool_knob "span_prioritization" false (fun cfg v ->
        { cfg with Config.span_prioritization = v });
    int_knob "cfl_lists"
      [| 1; 2; 4; 8; 16; 32 |]
      3
      (fun cfg v -> { cfg with Config.cfl_lists = v });
    bool_knob "lifetime_filler" false (fun cfg v ->
        { cfg with Config.lifetime_aware_filler = v });
    int_knob "lifetime_threshold"
      [| 2; 4; 8; 16; 32; 64 |]
      3
      (fun cfg v -> { cfg with Config.lifetime_capacity_threshold = v });
    interval_knob "pageheap_release_interval" intervals 2 (fun cfg v ->
        { cfg with Config.pageheap_release_interval_ns = v });
    {
      k_name = "pageheap_release_fraction";
      k_card = 6;
      k_baseline = 2;
      k_shared = false;
      k_apply =
        (fun cfg i ->
          { cfg with Config.pageheap_release_fraction = [| 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 |].(i) });
      k_render = (fun i -> string_of_float [| 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 |].(i));
    };
    interval_knob "stranded_reclaim_interval" intervals 2 (fun cfg v ->
        { cfg with Config.stranded_reclaim_interval_ns = v });
    int_knob "reclaim_retries" ~shared:true
      [| 0; 1; 2; 3; 5; 8 |]
      3
      (fun cfg v -> { cfg with Config.reclaim_retries = v });
    bytes_knob "reclaim_min_target" ~shared:true
      [| mib; 2 * mib; 4 * mib; 8 * mib; 16 * mib; 32 * mib |]
      3
      (fun cfg v -> { cfg with Config.reclaim_min_target_bytes = v });
  |]

let num_genes = Array.length knobs
let cardinality i = knobs.(i).k_card
let gene_name i = knobs.(i).k_name

let active backend i =
  match backend with Config.Tcmalloc -> true | _ -> knobs.(i).k_shared

let baseline = Array.map (fun k -> k.k_baseline) knobs

(* Any int array becomes a canonical genome: wrong length is cut/padded
   with baseline, each gene is folded into its grid (euclidean mod, so
   negative ints are fine), inactive genes are frozen at baseline.  Every
   search path and every decode funnels through here, which is what the
   qcheck round-trip property leans on: no int array can produce a
   config the backend rejects. *)
let clamp ~backend g =
  Array.init num_genes (fun i ->
      if not (active backend i) then knobs.(i).k_baseline
      else if i >= Array.length g then knobs.(i).k_baseline
      else
        let c = knobs.(i).k_card in
        ((g.(i) mod c) + c) mod c)

let decode ~backend g =
  let g = clamp ~backend g in
  let cfg = Config.with_backend backend Config.baseline in
  let cfg = ref cfg in
  Array.iteri (fun i gene -> cfg := knobs.(i).k_apply !cfg gene) g;
  !cfg

let of_bytes ~backend s =
  clamp ~backend (Array.init num_genes (fun i ->
      if i < String.length s then Char.code s.[i] else knobs.(i).k_baseline))

let random ~backend rng =
  Array.init num_genes (fun i ->
      if active backend i then Rng.int rng knobs.(i).k_card
      else knobs.(i).k_baseline)

(* Per-gene resample at [mutation_rate]; if no draw fired, one active gene
   is forced to a different value so mutation never returns its input
   (unless the backend leaves a single-point space). *)
let mutation_rate = 0.15

let mutate ~backend rng g =
  let g = clamp ~backend g in
  let out = Array.copy g in
  let changed = ref false in
  for i = 0 to num_genes - 1 do
    if active backend i && Rng.bernoulli rng mutation_rate then begin
      out.(i) <- Rng.int rng knobs.(i).k_card;
      if out.(i) <> g.(i) then changed := true
    end
  done;
  if not !changed then begin
    let eligible =
      Array.of_list
        (List.filter
           (fun i -> active backend i && knobs.(i).k_card > 1)
           (List.init num_genes Fun.id))
    in
    if Array.length eligible > 0 then begin
      let i = Rng.choose rng eligible in
      let shift = 1 + Rng.int rng (knobs.(i).k_card - 1) in
      out.(i) <- (g.(i) + shift) mod knobs.(i).k_card
    end
  end;
  out

let crossover rng a b =
  Array.init num_genes (fun i -> if Rng.bool rng then a.(i) else b.(i))

(* All +/-1 grid steps on active genes: the hill-climb neighborhood. *)
let neighbors ~backend g =
  let g = clamp ~backend g in
  let out = ref [] in
  for i = num_genes - 1 downto 0 do
    if active backend i then begin
      if g.(i) + 1 < knobs.(i).k_card then begin
        let n = Array.copy g in
        n.(i) <- g.(i) + 1;
        out := n :: !out
      end;
      if g.(i) > 0 then begin
        let n = Array.copy g in
        n.(i) <- g.(i) - 1;
        out := n :: !out
      end
    end
  done;
  !out

let key g = String.concat "." (Array.to_list (Array.map string_of_int g))

let render i v = knobs.(i).k_render v

let describe g =
  let parts = ref [] in
  for i = num_genes - 1 downto 0 do
    if g.(i) <> knobs.(i).k_baseline then
      parts := Printf.sprintf "%s=%s" knobs.(i).k_name (knobs.(i).k_render g.(i)) :: !parts
  done;
  match !parts with [] -> "paper-default" | parts -> String.concat " " parts
