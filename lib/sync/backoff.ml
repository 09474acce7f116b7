type t = {
  max_spins : int;
  mutable level : int;
  mutable count : int;
}

let create ?(max_spins = 64) () = { max_spins; level = 0; count = 0 }

let reset t =
  t.level <- 0;
  t.count <- 0

(* Three regimes: busy pauses, zero-length sleeps, then short sleeps whose
   duration grows with the level (capped at ~1ms so grace-period waits stay
   responsive). A zero-length sleep is not a yield: Linux rounds it up to
   the thread's timer slack (50 us by default), measured at 55-57 us per
   call on a 2-vCPU VM. *)
let once t =
  t.count <- t.count + 1;
  let level = t.level in
  t.level <- level + 1;
  if level < t.max_spins then Domain.cpu_relax ()
  else if level < t.max_spins * 4 then Unix.sleepf 0.
  else begin
    let excess = level - (t.max_spins * 4) in
    let micros = min 1000 (1 lsl min excess 10) in
    Unix.sleepf (float_of_int micros *. 1e-6)
  end

let spins t = t.count
