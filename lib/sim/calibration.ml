(* Engine costs behind Backend's Auto selection, in ns of CPU time.
   Generated; regenerate with
     dune exec bench/main.exe -- calibrate > lib/sim/calibration.ml
   on a quiet machine (see the calibration section of bench/main.ml
   for what each constant times). *)

type engine = {
  x : float;  (** per amplitude an X op touches *)
  mix : float;  (** per amplitude an H or generic 2x2 op touches *)
  diag : float;  (** per amplitude a phase or diagonal op touches *)
  collapse : float;  (** per amplitude a measure or reset touches *)
  copy : float;  (** per amplitude of a state copy *)
  shot : float;  (** per sampled shot, beside its draws and copies *)
  leaf : float;  (** per enumerated leaf, beside its fork copies *)
}

let dense =
  {
    x = 1.177;
    mix = 2.296;
    diag = 1.122;
    collapse = 4.54;
    copy = 2.862;
    shot = 189.;
    leaf = 259.2;
  }

let sparse =
  {
    x = 70.58;
    mix = 69.43;
    diag = 2.536;
    collapse = 54.56;
    copy = 8.407;
    shot = 176.3;
    leaf = 883.8;
  }

(* the tableau's units: 2n rows per gate, n^2 bits per collapse and
   per copy *)
let tableau =
  {
    x = 1.918;
    mix = 4.548;
    diag = 4.369;
    collapse = 0.1313;
    copy = 4.456;
    shot = 189.5;
    leaf = 718.4;
  }

(* per dense amplitude of one handoff between engines *)
let handoff = 2.76

(* per shot drawn from an exact distribution *)
let alias = 21.69

(* per sampled shot and measure or reset: its draw and its place in
   the walk's partition *)
let draw = 9.221
