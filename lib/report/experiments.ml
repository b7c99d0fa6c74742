open Circuit

type table1_row = {
  name : string;
  qubits_trad : int;
  qubits_dyn : int;
  gates_trad : int;
  gates_dyn : int;
  depth_trad : int;
  depth_dyn : int;
  tv : float;
  certified : bool;
}

type table2_row = {
  name : string;
  qubits_trad : int;
  qubits_dyn : int;
  gates_trad : int;
  gates_dyn1 : int;
  gates_dyn2 : int;
  depth_trad : int;
  depth_dyn1 : int;
  depth_dyn2 : int;
  tv_dyn1 : float;
  tv_dyn2 : float;
  violations_dyn1 : int;
  violations_dyn2 : int;
  certified_dyn1 : bool;
  certified_dyn2 : bool;
}

type fig7_row = {
  name : string;
  accuracy_trad : float;
  accuracy_dyn1 : float;
  accuracy_dyn2 : float;
  exact_dyn1 : float;
  exact_dyn2 : float;
}

(* ------------------------------------------------------------------ *)
(* Table I: Toffoli-free circuits                                     *)

(* only a channel-scope proof counts here: a dynamics-scope verdict
   (Algorithm 1 with violations) coexists with a genuinely non-zero
   TV distance, which these tables print alongside *)
let channel_certified traditional (r : Dqc.Transform.result) =
  match Dqc.Certifier.certify traditional r with
  | Verify.Certify.Proved { scope = Verify.Certify.Channel; _ } -> true
  | Verify.Certify.Proved { scope = Verify.Certify.Dynamics; _ }
  | Verify.Certify.Refuted _ | Verify.Certify.Unknown _ ->
      false

let table1_entry name traditional =
  let r = Dqc.Transform.transform traditional in
  {
    name;
    qubits_trad = Circ.num_qubits traditional;
    qubits_dyn = Circ.num_qubits r.circuit;
    gates_trad = Metrics.gate_count traditional;
    gates_dyn = Metrics.gate_count r.circuit;
    depth_trad = Metrics.traditional_depth traditional;
    depth_dyn = Metrics.dynamic_depth r.circuit;
    tv = Dqc.Equivalence.tv_distance traditional r;
    certified = channel_certified traditional r;
  }

let table1_rows () =
  List.map
    (fun s -> table1_entry ("BV_" ^ s) (Algorithms.Bv.circuit s))
    Algorithms.Bv.paper_benchmarks
  @ List.map
      (fun (o : Algorithms.Oracle.t) ->
        table1_entry o.name (Algorithms.Dj.circuit o))
      Algorithms.Dj.toffoli_free_oracles

(* ------------------------------------------------------------------ *)
(* Table II: Toffoli-based DJ circuits                                *)

let dynamic_metrics r =
  let expanded = Decompose.Pass.expand_cv r.Dqc.Transform.circuit in
  (Metrics.gate_count expanded, Metrics.dynamic_depth expanded)

let table2_entry (o : Algorithms.Oracle.t) =
  let dj = Algorithms.Dj.circuit o in
  let traditional = Decompose.Pass.substitute_toffoli `Clifford_t dj in
  let r1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let r2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  let gates_dyn1, depth_dyn1 = dynamic_metrics r1 in
  let gates_dyn2, depth_dyn2 = dynamic_metrics r2 in
  {
    name = o.name;
    qubits_trad = Circ.num_qubits dj;
    qubits_dyn = Circ.num_qubits r1.circuit;
    gates_trad = Metrics.gate_count traditional;
    gates_dyn1;
    gates_dyn2;
    depth_trad = Metrics.traditional_depth traditional;
    depth_dyn1;
    depth_dyn2;
    tv_dyn1 = Dqc.Equivalence.tv_distance dj r1;
    tv_dyn2 = Dqc.Equivalence.tv_distance dj r2;
    violations_dyn1 = List.length r1.violations;
    violations_dyn2 = List.length r2.violations;
    certified_dyn1 = channel_certified dj r1;
    certified_dyn2 = channel_certified dj r2;
  }

let table2_rows () = List.map table2_entry Algorithms.Dj_toffoli.oracles

(* ------------------------------------------------------------------ *)
(* Fig 7: computational accuracy                                      *)

(* joint outcome = data bits (as assigned by the transformation) then
   answer bits; ideal reference is the exact traditional joint *)
let fig7_entry ~shots ~seed (o : Algorithms.Oracle.t) =
  let dj = Algorithms.Dj.circuit o in
  let r1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let r2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  let ideal = Dqc.Equivalence.traditional_distribution dj r1 in
  let num_data = List.length r1.data_bit in
  let trad_measures =
    r1.data_bit @ List.mapi (fun k (q, _) -> (q, num_data + k)) r1.answer_phys
  in
  let dyn_measures (r : Dqc.Transform.result) =
    List.mapi (fun k (_, phys) -> (phys, num_data + k)) r.answer_phys
  in
  let accuracy_of hist = 1. -. Sim.Dist.tv_distance (Sim.Runner.to_dist hist) ideal in
  let accuracy_trad =
    accuracy_of
      (Sim.Backend.run_measured ~seed ~shots ~measures:trad_measures dj)
  in
  let dyn_accuracy (r : Dqc.Transform.result) =
    accuracy_of
      (Sim.Backend.run_measured ~seed:(seed + 1) ~shots
         ~measures:(dyn_measures r) r.circuit)
  in
  {
    name = o.name;
    accuracy_trad;
    accuracy_dyn1 = dyn_accuracy r1;
    accuracy_dyn2 = dyn_accuracy r2;
    exact_dyn1 = 1. -. Dqc.Equivalence.tv_distance dj r1;
    exact_dyn2 = 1. -. Dqc.Equivalence.tv_distance dj r2;
  }

let fig7_rows ?(shots = 1024) ?(seed = 0xF1607) () =
  List.map (fig7_entry ~shots ~seed) Algorithms.Dj_toffoli.oracles

(* ------------------------------------------------------------------ *)
(* Future work: dynamic multiple-control Toffoli realizations         *)

type mct_row = {
  name : string;
  arity : int;
  gates_trad : int;
  direct_gates : int;
  direct_iters : int;
  direct_conditioned : int;
  direct_tv : float;
  dyn1_gates : int;
  dyn1_iters : int;
  dyn1_tv : float;
  dyn2_gates : int;
  dyn2_iters : int;
  dyn2_tv : float;
}

let mct_entry (o : Algorithms.Oracle.t) =
  let dj = Algorithms.Dj.circuit o in
  let traditional = Decompose.Pass.substitute_toffoli `Clifford_t dj in
  let direct = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Direct_mct dj in
  let r1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let r2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  let gates r = fst (dynamic_metrics r) in
  {
    name = o.name;
    arity = o.arity;
    gates_trad = Metrics.gate_count traditional;
    direct_gates = Metrics.gate_count direct.circuit;
    direct_iters = List.length direct.iteration_order;
    direct_conditioned = Dqc.Transform.conditioned_count direct;
    direct_tv = Dqc.Equivalence.tv_distance dj direct;
    dyn1_gates = gates r1;
    dyn1_iters = List.length r1.iteration_order;
    dyn1_tv = Dqc.Equivalence.tv_distance dj r1;
    dyn2_gates = gates r2;
    dyn2_iters = List.length r2.iteration_order;
    dyn2_tv = Dqc.Equivalence.tv_distance dj r2;
  }

let mct_rows () = List.map mct_entry Algorithms.Mct_bench.suite

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let sf f = Printf.sprintf "%.4f" f

let paper_pair mine paper = Printf.sprintf "%d/%d" mine paper

let table1_report () =
  let rows =
    List.map
      (fun (r : table1_row) ->
        let p =
          match Paper_data.table1_find r.name with
          | Some p -> p
          | None -> assert false
        in
        [
          r.name;
          paper_pair r.qubits_trad p.Paper_data.qubits_trad;
          paper_pair r.qubits_dyn p.Paper_data.qubits_dyn;
          paper_pair r.gates_trad p.Paper_data.gates_trad;
          paper_pair r.gates_dyn p.Paper_data.gates_dyn;
          paper_pair r.depth_trad p.Paper_data.depth_trad;
          paper_pair r.depth_dyn p.Paper_data.depth_dyn;
          sf r.tv;
          (if r.certified then "yes" else "no");
        ])
      (table1_rows ())
  in
  Table.render_titled
    ~title:
      "Table I: Toffoli-free quantum circuits (each cell: measured/paper)"
    ~headers:
      [
        "Benchmark"; "Qubit tradi"; "Qubit dyna"; "Gate tradi"; "Gate dyna";
        "Depth tradi"; "Depth dyna"; "TV dist"; "Certified";
      ]
    ~rows ()

let table2_report () =
  let rows =
    List.map
      (fun (r : table2_row) ->
        let p =
          match Paper_data.table2_find r.name with
          | Some p -> p
          | None -> assert false
        in
        [
          r.name;
          paper_pair r.qubits_trad p.Paper_data.qubits_trad;
          paper_pair r.qubits_dyn p.Paper_data.qubits_dyn;
          paper_pair r.gates_trad p.Paper_data.gates_trad;
          paper_pair r.gates_dyn1 p.Paper_data.gates_dyn1;
          paper_pair r.gates_dyn2 p.Paper_data.gates_dyn2;
          paper_pair r.depth_trad p.Paper_data.depth_trad;
          paper_pair r.depth_dyn1 p.Paper_data.depth_dyn1;
          paper_pair r.depth_dyn2 p.Paper_data.depth_dyn2;
          (if r.certified_dyn1 then "yes" else "no");
          (if r.certified_dyn2 then "yes" else "no");
        ])
      (table2_rows ())
  in
  Table.render_titled
    ~title:
      "Table II: Toffoli-based DJ quantum circuits (each cell: measured/paper)"
    ~headers:
      [
        "Benchmark"; "Qubit tradi"; "Qubit dyn"; "Gate tradi"; "Gate dyn1";
        "Gate dyn2"; "Depth tradi"; "Depth dyn1"; "Depth dyn2";
        "Cert dyn1"; "Cert dyn2";
      ]
    ~rows ()

let fig7_report ?shots ?seed () =
  let rows =
    List.map
      (fun (r : fig7_row) ->
        [
          r.name;
          sf r.accuracy_trad;
          sf r.accuracy_dyn1;
          sf r.accuracy_dyn2;
          sf r.exact_dyn1;
          sf r.exact_dyn2;
        ])
      (fig7_rows ?shots ?seed ())
  in
  Table.render_titled
    ~title:
      "Fig 7: computational accuracy (1 - TV to ideal; 1024 noiseless shots)"
    ~headers:
      [
        "Benchmark"; "tradi"; "dynamic-1"; "dynamic-2"; "exact dyn1";
        "exact dyn2";
      ]
    ~rows ()

let mct_report () =
  let rows =
    List.map
      (fun (r : mct_row) ->
        [
          r.name;
          string_of_int r.arity;
          string_of_int r.gates_trad;
          string_of_int r.direct_gates;
          string_of_int r.direct_iters;
          string_of_int r.direct_conditioned;
          sf r.direct_tv;
          string_of_int r.dyn1_gates;
          string_of_int r.dyn1_iters;
          sf r.dyn1_tv;
          string_of_int r.dyn2_gates;
          string_of_int r.dyn2_iters;
          sf r.dyn2_tv;
        ])
      (mct_rows ())
  in
  Table.render_titled
    ~title:
      "Future work: dynamic MCT realizations on 2 qubits (DJ with C^nX oracles)"
    ~headers:
      [
        "Benchmark"; "n"; "trad g"; "dir g"; "dir it"; "dir cc"; "dir TV";
        "dyn1 g"; "dyn1 it"; "dyn1 TV"; "dyn2 g"; "dyn2 it"; "dyn2 TV";
      ]
    ~rows ()

type routing_row = {
  hidden_bits : int;
  trad_qubits : int;
  trad_gates : int;
  trad_swaps : int;
  trad_swaps_placed : int;  (* with the greedy initial layout *)
  trad_routed_gates : int;
  dyn_qubits : int;
  dyn_gates : int;
  dyn_swaps : int;
}

let routing_entry n =
  let s = String.make n '1' in
  let traditional = Algorithms.Bv.circuit s in
  let coupling = Transpile.Coupling.line (n + 1) in
  let routed = Transpile.Route.run ~coupling traditional in
  let placed = Transpile.Placement.route_with_placement ~coupling traditional in
  let dynamic = Dqc.Transform.transform traditional in
  let dyn_routed =
    Transpile.Route.run ~coupling:(Transpile.Coupling.line 2) dynamic.circuit
  in
  {
    hidden_bits = n;
    trad_qubits = Circ.num_qubits traditional;
    trad_gates = Metrics.gate_count traditional;
    trad_swaps = routed.Transpile.Route.swaps_inserted;
    trad_swaps_placed = placed.Transpile.Route.swaps_inserted;
    trad_routed_gates = Metrics.gate_count routed.Transpile.Route.circuit;
    dyn_qubits = Circ.num_qubits dynamic.circuit;
    dyn_gates = Metrics.gate_count dynamic.circuit;
    dyn_swaps = dyn_routed.Transpile.Route.swaps_inserted;
  }

let routing_rows () = List.map routing_entry [ 2; 3; 4; 6; 8; 12; 16 ]

let routing_report () =
  let rows =
    List.map
      (fun (r : routing_row) ->
        [
          Printf.sprintf "BV-%d" r.hidden_bits;
          string_of_int r.trad_qubits;
          string_of_int r.trad_gates;
          string_of_int r.trad_swaps;
          string_of_int r.trad_swaps_placed;
          string_of_int r.trad_routed_gates;
          string_of_int r.dyn_qubits;
          string_of_int r.dyn_gates;
          string_of_int r.dyn_swaps;
        ])
      (routing_rows ())
  in
  Table.render_titled
    ~title:
      "Routing study: BV on a linear-topology device (traditional vs dynamic)"
    ~headers:
      [
        "Benchmark"; "trad qubits"; "trad gates"; "trad SWAPs";
        "placed SWAPs"; "trad routed gates"; "dyn qubits"; "dyn gates";
        "dyn SWAPs";
      ]
    ~rows ()

type duration_row = {
  benchmark : string;
  trad_us : float;
  dyn1_us : float option;
  dyn2_us : float option;
  dyn_us : float option;
}

let us c = Metrics.duration c /. 1000.

let duration_rows () =
  let bv n =
    let s = String.make n '1' in
    let c = Algorithms.Bv.circuit s in
    let r = Dqc.Transform.transform c in
    {
      benchmark = Printf.sprintf "BV-%d" n;
      trad_us = us c;
      dyn1_us = None;
      dyn2_us = None;
      dyn_us = Some (us r.circuit);
    }
  in
  let dj name =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name name) in
    let c = Algorithms.Dj.circuit o in
    let traditional = Decompose.Pass.substitute_toffoli `Clifford_t c in
    let r1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 c in
    let r2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 c in
    {
      benchmark = "DJ(" ^ name ^ ")";
      trad_us = us traditional;
      dyn1_us = Some (us (Decompose.Pass.expand_cv r1.circuit));
      dyn2_us = Some (us (Decompose.Pass.expand_cv r2.circuit));
      dyn_us = None;
    }
  in
  [ bv 4; bv 8; bv 16; dj "AND"; dj "OR"; dj "CARRY" ]

let duration_report () =
  let opt = function None -> "-" | Some v -> Printf.sprintf "%.2f" v in
  let rows =
    List.map
      (fun (r : duration_row) ->
        [
          r.benchmark;
          Printf.sprintf "%.2f" r.trad_us;
          opt r.dyn_us;
          opt r.dyn1_us;
          opt r.dyn2_us;
        ])
      (duration_rows ())
  in
  Table.render_titled
    ~title:
      "Wall-clock study: critical path in microseconds (35ns 1q / 300ns 2q /\n\
       700ns measure / 840ns reset / 660ns feed-forward)"
    ~headers:[ "Benchmark"; "traditional"; "dynamic"; "dynamic-1"; "dynamic-2" ]
    ~rows ()

type scale_row = {
  bits : int;
  trad_tableau_qubits : int;
  dyn_tableau_qubits : int;
  dyn_gate_total : int;
  recovered : bool;
  ms_per_shot : float;
}

let scale_entry n =
  let s = String.init n (fun k -> if k mod 3 = 0 then '1' else '0') in
  let c = Algorithms.Bv.circuit s in
  let r = Dqc.Transform.transform c in
  let expected = Algorithms.Bv.expected_outcome s in
  let rng = Random.State.make [| 0x5CA1E |] in
  let shots = 20 in
  let program = Sim.Program.compile r.circuit in
  let t0 = Sys.time () in
  let recovered = ref true in
  for _ = 1 to shots do
    let st = Sim.Stabilizer.run ~rng program in
    if Sim.Stabilizer.register st <> expected then recovered := false
  done;
  let t1 = Sys.time () in
  {
    bits = n;
    trad_tableau_qubits = Circ.num_qubits c;
    dyn_tableau_qubits = Circ.num_qubits r.circuit;
    dyn_gate_total = Metrics.gate_count r.circuit;
    recovered = !recovered;
    ms_per_shot = (t1 -. t0) *. 1000. /. float_of_int shots;
  }

let scale_rows () = List.map scale_entry [ 8; 16; 32; 48; 60 ]

let scale_report () =
  let rows =
    List.map
      (fun (r : scale_row) ->
        [
          Printf.sprintf "BV-%d" r.bits;
          string_of_int r.trad_tableau_qubits;
          string_of_int r.dyn_tableau_qubits;
          string_of_int r.dyn_gate_total;
          string_of_bool r.recovered;
          Printf.sprintf "%.3f" r.ms_per_shot;
        ])
      (scale_rows ())
  in
  Table.render_titled
    ~title:
      "Scalability study: dynamic BV on the stabilizer engine (statevector \
       caps at 24 qubits)"
    ~headers:
      [
        "Benchmark"; "trad qubits"; "dyn qubits"; "dyn gates"; "recovered";
        "ms/shot";
      ]
    ~rows ()

type slots_row = {
  benchmark : string;
  scheme : string;
  trad_qubits : int;
  tv_at_1 : float;
  min_slots : int option;
  certified_qubits : int option;
}

let slots_entry (benchmark, scheme, trad_qubits, prepared) =
  let tv_at_1 =
    match Dqc.Transform.transform prepared with
    | r1 -> Dqc.Equivalence.tv_distance prepared r1
    | exception (Dqc.Transform.Not_transformable _ | Dqc.Interaction.Cyclic _)
      ->
        Float.nan
  in
  let min_slots = Dqc.Transform.min_exact_slots prepared in
  let certified_qubits =
    Option.map
      (fun slots ->
        let r = Dqc.Transform.transform ~mode:`Sound ~slots prepared in
        Circ.num_qubits r.Dqc.Transform.circuit)
      min_slots
  in
  { benchmark; scheme; trad_qubits; tv_at_1; min_slots; certified_qubits }

let slots_inputs () =
  let entry name scheme c prepared =
    (name, scheme, Circ.num_qubits c, prepared)
  in
  let dj name =
    let c =
      Algorithms.Dj.circuit
        (Option.get (Algorithms.Dj_toffoli.oracle_by_name name))
    in
    List.map
      (fun (label, s) ->
        entry ("DJ(" ^ name ^ ")") label c (Dqc.Toffoli_scheme.prepare s c))
      Dqc.Toffoli_scheme.[ ("dyn1", Dynamic_1); ("dyn2", Dynamic_2) ]
  in
  let bv = Algorithms.Bv.circuit "1011" in
  let simon = Algorithms.Simon.circuit "101" in
  let and_4 = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 4) in
  let adder, _ = Algorithms.Arithmetic.adder 2 in
  let grover = Algorithms.Grover.circuit ~n:3 ~marked:5 in
  [ entry "BV-4" "-" bv bv; entry "SIMON-3" "-" simon simon ]
  @ dj "AND" @ dj "CARRY"
  @ [
      entry "DJ(AND_4)" "dyn1" and_4
        (Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1 and_4);
      entry "ADDER-2" "dyn1" adder
        (Decompose.Pass.substitute_toffoli `Barenco adder);
      entry "GROVER-3" "dyn1" grover
        (Decompose.Pass.substitute_toffoli ~mct_reduction:`Dqc `Barenco grover);
    ]

let slots_rows () = List.map slots_entry (slots_inputs ())

let slots_report () =
  let rows =
    List.map
      (fun (r : slots_row) ->
        [
          r.benchmark;
          r.scheme;
          string_of_int r.trad_qubits;
          (if Float.is_nan r.tv_at_1 then "-" else sf r.tv_at_1);
          (match r.min_slots with Some k -> string_of_int k | None -> "-");
          (match r.certified_qubits with
          | Some q -> string_of_int q
          | None -> "-");
        ])
      (slots_rows ())
  in
  Table.render_titled
    ~title:
      "Qubit-accuracy frontier: smallest slot count with a sound-certified\n\
       (provably exact) dynamic realization"
    ~headers:
      [
        "Benchmark"; "scheme"; "trad qubits"; "TV @ 1 slot"; "min slots";
        "qubits @ certified";
      ]
    ~rows ()

(* the three evidence levels, strongest first: a symbolic proof from
   the certifier, an exact TV enumeration, a sampled TV estimate *)
let evidence ~certified ~sampled =
  if certified then "symbolic proof"
  else if sampled then "sampled TV"
  else "exact TV"

let equivalence_report () =
  let t1 =
    List.map
      (fun (r : table1_row) ->
        [
          r.name; "dynamic"; sf r.tv;
          evidence ~certified:r.certified ~sampled:false;
          string_of_bool (r.certified || r.tv <= 1e-9);
        ])
      (table1_rows ())
  in
  let t2 =
    List.concat_map
      (fun (r : table2_row) ->
        [
          [
            r.name; "dynamic-1"; sf r.tv_dyn1;
            evidence ~certified:r.certified_dyn1 ~sampled:false;
            string_of_bool (r.certified_dyn1 || r.tv_dyn1 <= 1e-9);
          ];
          [
            r.name; "dynamic-2"; sf r.tv_dyn2;
            evidence ~certified:r.certified_dyn2 ~sampled:false;
            string_of_bool (r.certified_dyn2 || r.tv_dyn2 <= 1e-9);
          ];
        ])
      (table2_rows ())
  in
  Table.render_titled
    ~title:
      "Functional equivalence (exact TV distance, traditional vs dynamic)"
    ~headers:[ "Benchmark"; "Scheme"; "TV distance"; "Evidence"; "Equivalent" ]
    ~rows:(t1 @ t2) ()

(* ------------------------------------------------------------------ *)
(* E12: general causal-cone qubit reuse over the algorithm benchmarks  *)

type reuse_row = {
  name : string;
  prep : string;  (** Toffoli scheme applied before the reuse pass *)
  qubits_before : int;
  qubits_after : int;
  saved : int;
  resets : int;
  pruned : int;
  certified : bool;
  verdict : string;
  reuse_ms : float;  (** CPU time inside the reuse pass *)
  certify_ms : float;  (** CPU time inside the certification gate *)
}

let reuse_suite () =
  let fresh = Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh in
  [
    ("GROVER-3", fresh, Algorithms.Grover.measured ~n:3 ~marked:5);
    ( "QPE-3",
      Dqc.Toffoli_scheme.Traditional,
      Algorithms.Qpe.kitaev ~bits:3 ~phase:(3. /. 8.) );
    ( "QPE-4",
      Dqc.Toffoli_scheme.Traditional,
      Algorithms.Qpe.kitaev ~bits:4 ~phase:(3. /. 8.) );
    ( "SIMON-110",
      Dqc.Toffoli_scheme.Traditional,
      Algorithms.Simon.measured_circuit "110" );
    ( "SIMON-1011",
      Dqc.Toffoli_scheme.Traditional,
      Algorithms.Simon.measured_circuit "1011" );
    ("ADDER-2", Dqc.Toffoli_scheme.Traditional, Algorithms.Arithmetic.measured 2);
  ]

let reuse_rows () =
  List.map
    (fun (name, scheme, circuit) ->
      let options =
        let s = scheme in
        Dqc.Pipeline.Options.(default |> with_scheme s |> with_reuse true)
      in
      let out = Dqc.Pipeline.compile ~options circuit in
      let report =
        match out.Dqc.Pipeline.reuse with
        | Some r -> r
        | None -> failwith "reuse flow produced no reuse report"
      in
      let pass_ms pass =
        List.fold_left
          (fun acc (e : Dqc.Pass_manager.event) ->
            if e.Dqc.Pass_manager.pass = pass then
              acc +. (e.Dqc.Pass_manager.elapsed_ns /. 1e6)
            else acc)
          0. out.Dqc.Pipeline.events
      in
      {
        name;
        prep = Dqc.Toffoli_scheme.to_string scheme;
        qubits_before = report.Dqc.Reuse.qubits_before;
        qubits_after = report.Dqc.Reuse.qubits_after;
        saved = Dqc.Reuse.saved report;
        resets = report.Dqc.Reuse.resets_inserted;
        pruned = report.Dqc.Reuse.resets_pruned;
        certified = out.Dqc.Pipeline.certified;
        verdict =
          (match List.assoc_opt "reuse.verdict" out.Dqc.Pipeline.notes with
          | Some v -> v
          | None -> "-");
        reuse_ms = pass_ms "reuse";
        certify_ms = pass_ms "reuse_certify";
      })
    (reuse_suite ())

let reuse_report () =
  let rows =
    List.map
      (fun (r : reuse_row) ->
        [
          r.name; r.prep;
          string_of_int r.qubits_before;
          string_of_int r.qubits_after;
          string_of_int r.saved;
          string_of_int r.resets;
          string_of_int r.pruned;
          string_of_bool r.certified;
          Printf.sprintf "%.2f" r.reuse_ms;
          Printf.sprintf "%.2f" r.certify_ms;
        ])
      (reuse_rows ())
  in
  Table.render_titled
    ~title:
      "General causal-cone qubit reuse (every rewiring proved by the\n\
       path-sum channel certifier; no sampling)"
    ~headers:
      [
        "Benchmark"; "prep"; "qubits"; "reused"; "saved"; "resets"; "pruned";
        "certified"; "reuse ms"; "certify ms";
      ]
    ~rows ()

(* ------------------------------------------------------------------ *)
(* E13: static sparsity bounds vs measured dense sparsity              *)

type sparsity_row = {
  name : string;
  scheme : string;
  qubits : int;
  segments : int;
  clifford : bool;
  log2_bound : int;
  log2_measured : int;
  sound : bool;
  engine : string;  (** what [Sim.Backend.select Auto] picks *)
  plan : string;  (** per-segment engine plan ("dense,sparse,...") *)
}

(* Replay the circuit on the dense engine instruction by instruction
   and record the peak nonzero-amplitude count — the ground truth the
   analyzer's static bound must dominate on every random branch. *)
let measured_log2_peak ?(seeds = 3) c =
  let nq = Circ.num_qubits c and nb = Circ.num_bits c in
  let peak = ref 1 in
  for s = 0 to seeds - 1 do
    let rng = Random.State.make [| 0xF1607 + s |] in
    let random () = Random.State.float rng 1.0 in
    let st = Sim.State.create nq ~num_bits:nb in
    List.iter
      (fun i ->
        let p =
          Sim.Program.compile_instructions ~num_qubits:nq ~num_bits:nb [ i ]
        in
        Sim.Program.exec ~random st p;
        let v = Sim.State.amplitudes st in
        let nz = ref 0 in
        for k = 0 to Linalg.Cvec.dim v - 1 do
          if Complex.norm2 (Linalg.Cvec.get v k) > 1e-18 then incr nz
        done;
        if !nz > !peak then peak := !nz)
      (Circ.instructions c)
  done;
  let rec lg acc n = if n <= 1 then acc else lg (acc + 1) ((n + 1) / 2) in
  lg 0 !peak

let sparsity_entry ~name ~scheme c =
  let summary = Sim.Backend.resource_summary c in
  let log2_bound = summary.Lint.Resource.log2_bound_peak in
  let log2_measured = measured_log2_peak c in
  {
    name;
    scheme;
    qubits = Circ.num_qubits c;
    segments = List.length summary.Lint.Resource.segments;
    clifford = summary.Lint.Resource.clifford;
    log2_bound;
    log2_measured;
    sound = log2_measured <= log2_bound;
    engine = Sim.Backend.engine_name (Sim.Backend.select ~shots:1024 c);
    plan =
      (let plan = (Sim.Backend.predict ~shots:1024 c).plan in
       let total = List.length plan in
       let sparse =
         List.length
           (List.filter
              (fun (p : Sim.Backend.segment_engine) -> p.seg_engine = `Sparse)
              plan)
       in
       if total = 0 then "-"
       else if sparse = 0 then "all dense"
       else if sparse = total then "all sparse"
       else Printf.sprintf "%d/%d sparse" sparse total);
  }

let sparsity_rows () =
  let dj_rows (o : Algorithms.Oracle.t) =
    let dj = Algorithms.Dj.circuit o in
    let dyn scheme =
      (Dqc.Toffoli_scheme.transform scheme dj).Dqc.Transform.circuit
    in
    [
      sparsity_entry ~name:o.Algorithms.Oracle.name ~scheme:"traditional" dj;
      sparsity_entry ~name:o.Algorithms.Oracle.name ~scheme:"dyn1"
        (dyn Dqc.Toffoli_scheme.Dynamic_1);
      sparsity_entry ~name:o.Algorithms.Oracle.name ~scheme:"dyn2"
        (dyn Dqc.Toffoli_scheme.Dynamic_2);
    ]
  in
  let adaptive =
    [
      sparsity_entry ~name:"XORA_8" ~scheme:"traditional"
        (Algorithms.Mct_bench.adaptive_parity 8);
    ]
  in
  List.concat_map dj_rows
    (List.filter
       (fun (o : Algorithms.Oracle.t) ->
         List.mem o.Algorithms.Oracle.name [ "AND"; "OR"; "CARRY" ])
       Algorithms.Dj_toffoli.oracles)
  @ adaptive

let sparsity_report () =
  let rows =
    List.map
      (fun (r : sparsity_row) ->
        [
          r.name; r.scheme;
          string_of_int r.qubits;
          string_of_int r.segments;
          string_of_bool r.clifford;
          string_of_int r.log2_bound;
          string_of_int r.log2_measured;
          string_of_bool r.sound;
          r.engine;
          r.plan;
        ])
      (sparsity_rows ())
  in
  Table.render_titled
    ~title:
      "Static sparsity bounds vs measured dense sparsity (log2 of peak\n\
       nonzero amplitudes; sound = measured <= bound on every seed)"
    ~headers:
      [
        "Benchmark"; "scheme"; "qubits"; "segments"; "clifford"; "bound";
        "measured"; "sound"; "auto engine"; "segment plan";
      ]
    ~rows ()

(* ------------------------------------------------------------------ *)
(* E14: certified optimizer over the benchmark corpus                  *)

type optimize_row = {
  name : string;
  scheme : string;
  gates_before : int;
  gates_after : int;
  depth_before : int;
  depth_after : int;
  folded : int;
  resets_removed : int;
  uncomputes : int;
  sweeps : int;
  proved : bool;
}

let optimize_entry ~name ~scheme c =
  let r = Dqc.Optimize.run c in
  let t = r.Dqc.Optimize.total in
  {
    name;
    scheme;
    gates_before = Metrics.gate_count r.Dqc.Optimize.before;
    gates_after = Metrics.gate_count r.Dqc.Optimize.after;
    depth_before = Metrics.dynamic_depth r.Dqc.Optimize.before;
    depth_after = Metrics.dynamic_depth r.Dqc.Optimize.after;
    folded = t.Dqc.Optimize.measures_removed;
    resets_removed = t.Dqc.Optimize.resets_removed;
    uncomputes = t.Dqc.Optimize.uncomputes_removed;
    sweeps = r.Dqc.Optimize.sweeps;
    proved = r.Dqc.Optimize.proved;
  }

(* the reuse corpus compiled with the diagnose-only schedule — the
   prune_resets stage is left out so the optimizer's dce sweep is the
   one removing the provably-redundant resets *)
let optimize_reuse_input scheme circuit =
  let options =
    let s = scheme in
    Dqc.Pipeline.Options.(
      default |> with_scheme s |> with_reuse true
      |> with_passes [ "prepare"; "reuse"; "reuse_certify" ])
  in
  (Dqc.Pipeline.compile ~options circuit).Dqc.Pipeline.circuit

let optimize_rows () =
  let table1 =
    List.concat_map
      (fun (name, traditional) ->
        let r = Dqc.Transform.transform traditional in
        [ optimize_entry ~name ~scheme:"dyn" r.Dqc.Transform.circuit ])
      (List.map
         (fun s -> ("BV_" ^ s, Algorithms.Bv.circuit s))
         Algorithms.Bv.paper_benchmarks
      @ List.map
          (fun (o : Algorithms.Oracle.t) -> (o.name, Algorithms.Dj.circuit o))
          Algorithms.Dj.toffoli_free_oracles)
  in
  let table2 =
    List.concat_map
      (fun (o : Algorithms.Oracle.t) ->
        let dj = Algorithms.Dj.circuit o in
        let traditional = Decompose.Pass.substitute_toffoli `Clifford_t dj in
        let dyn scheme =
          Decompose.Pass.expand_cv
            (Dqc.Toffoli_scheme.transform scheme dj).Dqc.Transform.circuit
        in
        [
          optimize_entry ~name:o.name ~scheme:"traditional" traditional;
          optimize_entry ~name:o.name ~scheme:"dyn1"
            (dyn Dqc.Toffoli_scheme.Dynamic_1);
          optimize_entry ~name:o.name ~scheme:"dyn2"
            (dyn Dqc.Toffoli_scheme.Dynamic_2);
        ])
      Algorithms.Dj_toffoli.oracles
  in
  let reuse =
    List.map
      (fun (name, scheme, circuit) ->
        optimize_entry ~name ~scheme:"reuse"
          (optimize_reuse_input scheme circuit))
      (reuse_suite ())
  in
  table1 @ table2 @ reuse

let optimize_report () =
  let rows =
    List.map
      (fun (r : optimize_row) ->
        [
          r.name; r.scheme;
          string_of_int r.gates_before;
          string_of_int r.gates_after;
          string_of_int r.depth_before;
          string_of_int r.depth_after;
          string_of_int r.folded;
          string_of_int r.resets_removed;
          string_of_int r.uncomputes;
          string_of_int r.sweeps;
          string_of_bool r.proved;
        ])
      (optimize_rows ())
  in
  Table.render_titled
    ~title:
      "Certified optimizer (every accepted rewrite proved\n\
       channel-equivalent by the path-sum certifier; no sampling)"
    ~headers:
      [
        "Benchmark"; "scheme"; "gates"; "opt"; "depth"; "opt"; "folded";
        "resets"; "uncomp"; "sweeps"; "proved";
      ]
    ~rows ()

