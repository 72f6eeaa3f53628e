(* The benchmark's one clock: the monotonic clock that Bechamel installs,
   read as integer nanoseconds without allocating. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one clock read, from a loop long enough that the two reads
   bracketing it do not matter. *)
let read_ns () =
  let n = 200_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now_ns ()))
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per-call time of [f i] for i = 0, 1, 2, ...: the call count per batch
   doubles until a batch lasts [batch_ns] (5 ms, so the two clock reads of
   a batch are far below 1% of it), then the median over [batches]
   batches, in nanoseconds per call. *)
let per_call ?(batch_ns = 5_000_000) ?(batches = 7) f =
  let time n =
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      f i
    done;
    now_ns () - t0
  in
  let rec calibrate n = if time n >= batch_ns || n >= 1 lsl 30 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  median (List.init batches (fun _ -> float_of_int (time n) /. float_of_int n))
