(* Host-speed calibration.

   The host this benchmark runs on moves between speed phases: for
   seconds to minutes every operation runs 1.3-1.9x slower, all in step,
   with no steal time to show for it (README.md, "Noise on the measuring
   host").  So the harness times a fixed kernel between operations, and
   reports every time scaled to a host on which the kernel takes
   [reference_ms]:

     scaled = wall * reference_ms / kernel_ms

   where kernel_ms is the mean of the calibrations just before and just
   after the operation.  The kernel uses the standard library only, so no
   change to the program can move it; it allocates, hashes, compares and
   sorts, as the program does. *)

let now = Unix.gettimeofday

(* the kernel's time, in ms, on the measuring host in a fast phase *)
let reference_ms = 3.0

(* a new calibration is taken before an operation once this much
   operation time has passed since the last one *)
let every_s = 0.02

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
    let t0 = now () in
    ignore (kernel ());
    (now () -. t0) *. 1000.
  in
  let a = [| once (); once (); once () |] in
  Array.sort compare a;
  a.(1)

(* Calibrations split the run into segments: segment i lies between
   calibration i and calibration i + 1. *)
type t = {
  mutable cals : float list;  (** newest first *)
  mutable segment : int;  (** the current one *)
  mutable since : float;  (** operation time in it, in seconds *)
}

let create () = { cals = [ sample_ms () ]; segment = 0; since = 0. }

let calibrate t =
  t.cals <- sample_ms () :: t.cals;
  t.segment <- t.segment + 1;
  t.since <- 0.

(* Run [f], an operation that reports its own wall time in seconds,
   calibrating first if one is due; the result carries the segment. *)
let measure t f =
  if t.since >= every_s then calibrate t;
  let ((dt, _) as r) = f () in
  t.since <- t.since +. dt;
  (t.segment, r)

let kernels t = Array.of_list (List.rev t.cals)

(* [scale t seg dt]: [dt], measured in segment [seg], at reference speed;
   a calibration must close the last segment first *)
let scale t =
  let k = kernels t in
  fun seg dt -> dt *. reference_ms /. ((k.(seg) +. k.(seg + 1)) /. 2.)
