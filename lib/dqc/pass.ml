open Circuit

type kind = Analysis | Transform | Gate

type config = {
  scheme : Toffoli_scheme.t;
  mode : [ `Algorithm1 | `Sound ];
  slots : int;
  backend_policy : Sim.Backend.policy;
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
  facts : Lint.Trace.t option;
  lint : Lint.report option;
  resources : (Circ.t * Lint.Resource.summary) option;
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
    facts = None;
    lint = None;
    resources = None;
    reuse = None;
    notes = [];
  }

let note key value ctx = { ctx with notes = (key, value) :: ctx.notes }

let fresh_facts ctx =
  match ctx.facts with
  | Some trace when Lint.Trace.circuit trace == ctx.circuit -> Some trace
  | Some _ | None -> None

let fresh_resources ctx =
  match ctx.resources with
  | Some (c, summary) when c == ctx.circuit -> Some summary
  | Some _ | None -> None

type t = { name : string; kind : kind; doc : string; run : ctx -> ctx }

let make ~name ~kind ~doc run =
  if name = "" then invalid_arg "Pass.make: empty name";
  { name; kind; doc; run }

let kind_to_string = function
  | Analysis -> "analysis"
  | Transform -> "transform"
  | Gate -> "gate"
