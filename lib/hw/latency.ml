type locality = Same_core | Intra_domain | Inter_domain | Inter_socket

let intra_domain_ns = 40.0
let inter_domain_ns = 82.8 (* 2.07x intra, Fig. 11 *)
let inter_socket_ns = 135.0

let classify topology ~src_cpu ~dst_cpu =
  if src_cpu = dst_cpu then Same_core
  else begin
    let src_domain = Topology.domain_of_cpu topology src_cpu in
    let dst_domain = Topology.domain_of_cpu topology dst_cpu in
    if src_domain = dst_domain then Intra_domain
    else if
      Topology.socket_of_cpu topology src_cpu = Topology.socket_of_cpu topology dst_cpu
    then Inter_domain
    else Inter_socket
  end

let transfer_ns = function
  | Same_core -> 0.0
  | Intra_domain -> intra_domain_ns
  | Inter_domain -> inter_domain_ns
  | Inter_socket -> inter_socket_ns
