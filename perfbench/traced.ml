(* Bench-side wrappers around the program's public protocol interface.

   [Make (P)] is [P] with its machines instrumented: machine construction
   and every [Process.step] become [Tracer] spans, and every [Process.wake]
   poll is counted (not timed: the event-driven engine polls n processes
   per slot, tens of millions of calls per run). The wrapper forwards every
   argument and result untouched, so a wrapped run is observationally the
   run itself — the benchmark's tests hold it to that. *)

open Mewc_sim
open Mewc_core

module Make (P : Protocol.S) :
  Protocol.S
    with type value = P.value
     and type params = P.params
     and type state = P.state
     and type msg = P.msg
     and type decision = P.decision = struct
  include P

  let machine ~cfg ~pki ~secret ~params ~pid =
    let t0 = Tracer.now_ns () in
    let m = P.machine ~cfg ~pki ~secret ~params ~pid in
    Tracer.record Tracer.Init t0 (Tracer.now_ns ());
    let cell = Tracer.new_cell () in
    let step ~slot ~inbox st =
      let t0 = Tracer.now_ns () in
      let ((_, sends) as r) = m.Process.step ~slot ~inbox st in
      Tracer.record Tracer.Step t0 (Tracer.now_ns ());
      cell.steps <- cell.steps + 1;
      cell.sends <- cell.sends + List.length sends;
      r
    in
    let wake =
      Option.map
        (fun wake ~slot st ->
          let b = wake ~slot st in
          cell.polls <- cell.polls + 1;
          if b then cell.wakes <- cell.wakes + 1;
          b)
        m.Process.wake
    in
    { m with Process.step; wake }
end
