open Circuit

type kind = Analysis | Transform | Gate

type config = {
  scheme : Toffoli_scheme.t;
  mode : [ `Algorithm1 | `Sound ];
  slots : int;
}

type transformed = Single of Transform.result | Multi of Transform.result

type ctx = {
  config : config;
  traditional : Circ.t;
  reference : Circ.t;
  circuit : Circ.t;
  transformed : transformed option;
  data_bit : (int * int) list;
  answer_phys : (int * int) list;
  iterations : int;
  violations : int;
  certified : bool;
  tv : float option;
  tv_sampled : bool;
  lint : Lint.report option;
  reuse : Reuse.report option;
  notes : (string * string) list;
}

let init ~config circuit =
  {
    config;
    traditional = circuit;
    reference = circuit;
    circuit;
    transformed = None;
    data_bit = [];
    answer_phys = [];
    iterations = 0;
    violations = 0;
    certified = false;
    tv = None;
    tv_sampled = false;
    lint = None;
    reuse = None;
    notes = [];
  }

let note key value ctx = { ctx with notes = (key, value) :: ctx.notes }

type t = { name : string; kind : kind; doc : string; run : ctx -> ctx }

let make ~name ~kind ~doc run =
  if name = "" then invalid_arg "Pass.make: empty name";
  { name; kind; doc; run }

let kind_to_string = function
  | Analysis -> "analysis"
  | Transform -> "transform"
  | Gate -> "gate"
