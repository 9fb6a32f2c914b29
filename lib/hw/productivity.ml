type params = {
  base_cpi : float;
  llc_mpki : float;
  llc_miss_penalty : float;
  alloc_locality_share : float;
  dtlb_walk_fraction : float;
  instructions_per_request : float;
  malloc_cycle_fraction : float;
}

let mpki_with_locality params ~remote_fraction ~baseline_remote_fraction =
  if baseline_remote_fraction <= 0.0 then params.llc_mpki
  else begin
    let alloc_component = params.llc_mpki *. params.alloc_locality_share in
    let fixed_component = params.llc_mpki -. alloc_component in
    fixed_component +. (alloc_component *. (remote_fraction /. baseline_remote_fraction))
  end

let cpi params ~mpki ~walk_fraction =
  let compute = params.base_cpi +. (mpki /. 1000.0 *. params.llc_miss_penalty) in
  let walk_fraction = Float.min 0.95 (Float.max 0.0 walk_fraction) in
  compute /. (1.0 -. walk_fraction)

let baseline_cpi params =
  cpi params ~mpki:params.llc_mpki ~walk_fraction:params.dtlb_walk_fraction

let throughput_per_core topology params ~mpki ~walk_fraction =
  let hz = topology.Topology.frequency_ghz *. 1e9 in
  hz /. (params.instructions_per_request *. cpi params ~mpki ~walk_fraction)

(* Fraction of a CPI improvement that shows up as application throughput
   (WSC services are not purely CPU-bound; the paper's Tables 1/2 show
   throughput gains of roughly a third to a half of the CPI gains). *)
let throughput_sensitivity = 0.5

let throughput_change_pct topology params ~mpki_before ~walk_before ~mpki_after ~walk_after =
  let before =
    throughput_per_core topology params ~mpki:mpki_before ~walk_fraction:walk_before
  in
  let after =
    throughput_per_core topology params ~mpki:mpki_after ~walk_fraction:walk_after
  in
  throughput_sensitivity *. Wsc_substrate.Stats.percent_change ~before ~after

let cpi_change_pct params ~mpki_before ~walk_before ~mpki_after ~walk_after =
  let before = cpi params ~mpki:mpki_before ~walk_fraction:walk_before in
  let after = cpi params ~mpki:mpki_after ~walk_fraction:walk_after in
  Wsc_substrate.Stats.percent_change ~before ~after
