(* What one run costs, measured around the calls into the program: wall
   time on the monotonic clock, CPU time of every thread, and GC deltas.
   [Gc.quick_stat] sums the counters of every domain, so allocation on
   the sharded engine's helper domains and the async runtime's process
   domains is counted; [Gc.minor_words ()] would see the calling domain
   only. *)

type t = {
  wall : float;  (** s, the calls into the program only *)
  cpu : float;  (** user + system s, every thread *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime

(* [take call] applies [call] and measures it; returns the sample and
   [call]'s result. *)
let take call =
  let g0 = Gc.quick_stat () and c0 = cpu_now () and w0 = Tracer.now_ns () in
  let r = call () in
  let w1 = Tracer.now_ns () in
  let c1 = cpu_now () and g1 = Gc.quick_stat () in
  ( {
      wall = float (w1 - w0) *. 1e-9;
      cpu = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      minor_collections = g1.minor_collections - g0.minor_collections;
      major_collections = g1.major_collections - g0.major_collections;
    },
    r )
