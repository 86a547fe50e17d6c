(* Host-speed calibration for bench timings.

   The bench hosts move between speed phases: for seconds to minutes
   every operation runs up to ~2x slower, all in step, so two runs of
   the same tree can disagree by more than a real change would move
   them.  Each timed measurement is therefore bracketed by a fixed
   kernel, and reported also scaled to a host on which the kernel takes
   [reference_ms]:

     scaled = wall * reference_ms / kernel_ms

   where kernel_ms is the mean of the calibrations just before and just
   after the measurement.  This is the method of the end-to-end
   benchmark (perfbench/calib.ml), with the same kernel and reference so
   the two scales agree.  The kernel uses the standard library only, so
   no change to the program can move it; it allocates, hashes, compares
   and sorts, as the program does. *)

(* the kernel's time, in ms, on the reference host in a fast phase *)
let reference_ms = 3.0

module M = Map.Make (Int)

let kernel () =
  let m = ref M.empty in
  let x = ref 12345 in
  for i = 0 to 3_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := M.add (!x land 0xffff) i !m
  done;
  let h = Hashtbl.create 1024 in
  M.iter (fun k v -> Hashtbl.replace h (string_of_int k) v) !m;
  let a = Array.init 4000 (fun i -> i * 7919 land 0xffff) in
  Array.sort compare a;
  Sys.opaque_identity (Hashtbl.length h + a.(0))

(* one calibration: the median of three kernel times, in ms *)
let sample_ms () =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (kernel ());
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let a = [| once (); once (); once () |] in
  Array.sort compare a;
  a.(1)

type timing = {
  wall_s : float;
  before_ms : float;  (** calibration just before *)
  after_ms : float;  (** calibration just after *)
}

let scaled_s t = t.wall_s *. reference_ms /. ((t.before_ms +. t.after_ms) /. 2.)

(* [time f]: [f ()] and its calibrated timing *)
let time f =
  let before_ms = sample_ms () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let after_ms = sample_ms () in
  (r, { wall_s; before_ms; after_ms })
