let per_cpu_cache_ns = 3.1
let transfer_cache_ns = 25.0 (* mutex-protected flat-array batch move *)
let central_free_list_ns = 81.3 (* mutex + linked-list span extraction *)
let pageheap_ns = 137.0
let mmap_ns = 12916.7
let prefetch_ns = 0.9
let sampling_ns = 220.0

type tier = Per_cpu_cache | Transfer_cache | Central_free_list | Pageheap | Mmap

let tier_hit_ns = function
  | Per_cpu_cache -> per_cpu_cache_ns
  | Transfer_cache -> transfer_cache_ns
  | Central_free_list -> central_free_list_ns
  | Pageheap -> pageheap_ns
  | Mmap -> mmap_ns

let tier_name = function
  | Per_cpu_cache -> "CPUCache"
  | Transfer_cache -> "TransferCache"
  | Central_free_list -> "CentralFreeList"
  | Pageheap -> "PageHeap"
  | Mmap -> "mmap"

let all_tiers = [ Per_cpu_cache; Transfer_cache; Central_free_list; Pageheap; Mmap ]
