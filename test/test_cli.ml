(* The command-line interface as a user meets it: the built dqc_cli.exe
   runs as a subprocess over a table of argument vectors, each with the
   exit code it must give (0 success, 1 failure or bad input, 2 a
   refuted certificate; README lists them per subcommand), and the
   three telemetry files `stats` exports are read back as JSON. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let cli = Filename.concat ".." (Filename.concat "bin" "dqc_cli.exe")

let run args =
  Sys.command
    (Filename.quote_command cli ~stdout:Filename.null ~stderr:Filename.null
       args)

let scratch = Filename.temp_dir "dqc_cli_test" ""
let missing = Filename.concat scratch "missing.qasm"

let write_scratch name text =
  let path = Filename.concat scratch name in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  path

let malformed = write_scratch "malformed.qasm" "this is not qasm\n"

(* two data qubits that control each other: no Case-2 iteration order *)
let cyclic =
  write_scratch "cyclic.qasm"
    "OPENQASM 3.0;\nqubit[2] q;\ncx q[0], q[1];\ncx q[1], q[0];\n"

(* (label, argv, expected exit code); the label stands in for argv
   where argv holds a scratch path *)
let exit_code_rows =
  List.map
    (fun (args, code) -> (String.concat " " args, args, code))
    [
      ([ "verify"; "AND"; "--scheme"; "dynamic-1" ], 0);
      ([ "verify"; "DJ_XOR"; "--scheme"; "dynamic-1"; "--corrupt" ], 2);
      (* dyn1 DJ(AND) has violations: the dynamics-scope certificate
         replays the flip, so the corrupted result still proves *)
      ([ "verify"; "AND"; "--scheme"; "dynamic-1"; "--corrupt" ], 0);
      ([ "verify"; "NOPE" ], 1);
      ([ "lint"; "AND_4"; "--scheme"; "dynamic-2" ], 0);
      ([ "lint"; "--file"; "../examples/lint_violation.qasm" ], 1);
      ([ "simulate"; "AND"; "--backend"; "stabilizer" ], 1);
      (* ADDER_2 measures its sum: Algorithm 1 rejects the input *)
      ([ "simulate"; "ADDER_2"; "--dynamic" ], 1);
      ([ "lint"; "ADDER_2" ], 1);
      ([ "analyze" ], 1);
      ([ "reuse"; "GROVER_3" ], 0);
      (* a BV_ suffix that is not a bit string names no benchmark *)
      ([ "transform"; "BV_40" ], 1);
      ([ "simulate"; "BV_2x" ], 1);
      (* out-of-range algorithm parameters are bad input *)
      ([ "qpe"; "--bits"; "0" ], 1);
      ([ "grover"; "--marked"; "99" ], 1);
      ([ "simon"; "--secret"; "012" ], 1);
    ]
  @ List.concat_map
      (fun cmd ->
        [
          (cmd ^ " --file <missing>", [ cmd; "--file"; missing ], 1);
          (cmd ^ " --file <malformed>", [ cmd; "--file"; malformed ], 1);
        ])
      [ "analyze"; "lint"; "verify" ]
  @ [ ("verify --file <cyclic>", [ "verify"; "--file"; cyclic ], 1) ]

let exit_code_case (label, args, code) =
  Alcotest.test_case label `Quick (fun () ->
      check_int (label ^ ": exit code") code (run args))

(* ------------------------------------------------------------------ *)
(* Telemetry exports of `stats`                                       *)

let get key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" key

let str key j = Option.bind (Obs.Json.member key j) Obs.Json.to_string_opt

let num key j =
  match Option.bind (Obs.Json.member key j) Obs.Json.to_float_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing number %S" key

let list = function
  | Obs.Json.List l -> l
  | _ -> Alcotest.fail "expected a JSON array"

let test_stats_exports () =
  let path name = Filename.concat scratch name in
  let trace = path "trace.json"
  and metrics = path "metrics.json"
  and flight = path "flight.json" in
  check_int "stats exit code" 0
    (run
       [
         "stats"; "AND"; "--shots"; "256"; "--trace"; trace; "--metrics";
         metrics; "--flight-record"; flight;
       ]);
  (* Chrome trace: complete events for the pipeline and the backend,
     and the thread-ordering metadata *)
  let events = list (get "traceEvents" (Obs.Json.read ~path:trace)) in
  let spans =
    List.filter_map
      (fun e -> if str "ph" e = Some "X" then str "name" e else None)
      events
  in
  List.iter
    (fun name -> check_bool (name ^ " span") true (List.mem name spans))
    [ "pipeline.compile"; "backend.run" ];
  check_bool "thread_sort_index metadata" true
    (List.exists (fun e -> str "name" e = Some "thread_sort_index") events);
  (* metrics v2: shot and op counters, percentile histograms *)
  let m = Obs.Json.read ~path:metrics in
  check_string "metrics schema" "dqc.obs.metrics/2"
    (Option.value ~default:"" (str "schema" m));
  let counters = get "counters" m in
  check_bool "backend.shots = 256" true (num "backend.shots" counters = 256.);
  check_bool "sim.program.ops > 0" true (num "sim.program.ops" counters > 0.);
  let h = get "histograms" m in
  check_bool "parallel.shot count = 8" true
    (num "count" (get "parallel.shot" h) = 8.);
  List.iter
    (fun p -> ignore (num p (get "backend.run" h)))
    [ "p50_ns"; "p90_ns"; "p99_ns"; "p999_ns" ];
  (* flight record: pass boundaries and the backend run *)
  let f = Obs.Json.read ~path:flight in
  check_string "flight schema" "dqc.flight/1"
    (Option.value ~default:"" (str "schema" f));
  let kinds = List.filter_map (str "kind") (list (get "events" f)) in
  List.iter
    (fun k -> check_bool (k ^ " event") true (List.mem k kinds))
    [ "pass.begin"; "pass.end"; "backend.select"; "backend.run" ]

(* `analyze` explains Auto's choice: the predicted ms of each engine
   under "auto backend (1024 shots)", and the engine exact enumerates
   on — the tableau for XORA_15, whose witness is Clifford *)
let analyze_lines args =
  let out = Filename.concat scratch "analyze.txt" in
  check_int "analyze exit code" 0
    (Sys.command
       (Filename.quote_command cli ~stdout:out ~stderr:Filename.null
          ("analyze" :: args)));
  let lines = In_channel.with_open_text out In_channel.input_lines in
  let rec after = function
    | l :: rest when String.starts_with ~prefix:"auto backend (1024 shots)" l ->
        rest
    | _ :: rest -> after rest
    | [] -> Alcotest.fail "no auto backend line"
  in
  after lines

let test_analyze_predictions () =
  let engines =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | engine :: _ when String.length l > 2 && l.[0] = ' ' -> Some engine
        | _ -> None)
      (analyze_lines [ "AND_4"; "--scheme"; "dynamic-2" ])
  in
  List.iter
    (fun e -> check_bool (e ^ " priced or ruled out") true (List.mem e engines))
    [ "exact"; "sparse"; "dense"; "hybrid"; "stabilizer" ];
  check_bool "XORA_15: exact on the tableau" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"  exact " l
         && String.ends_with ~suffix:" on the tableau" l)
       (analyze_lines [ "XORA_15" ]))

let () =
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat scratch f))
        (Sys.readdir scratch);
      Sys.rmdir scratch)
    (fun () ->
      Alcotest.run ~and_exit:false "cli"
        [
          ("exit codes", List.map exit_code_case exit_code_rows);
          ( "telemetry",
            [
              Alcotest.test_case "stats exports" `Quick test_stats_exports;
              Alcotest.test_case "analyze predictions" `Quick
                test_analyze_predictions;
            ] );
        ])
