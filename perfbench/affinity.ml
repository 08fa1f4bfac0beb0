(* CPU affinity of the calling thread (Linux [sched_setaffinity]). Domains
   spawned later inherit it, so restore the full set before any run that
   spawns them. *)

external cpus : unit -> int list = "perfbench_cpus"
external set_cpus : int list -> bool = "perfbench_set_cpus"
