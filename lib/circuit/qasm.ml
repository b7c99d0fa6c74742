(* Recursive-descent parsing dispatches on the token type with
   catch-all error arms — the parser idiom warning 4 would otherwise
   flag at every `| t -> parse_fail ...` default. *)
[@@@warning "-4"]

let gate_name (g : Gate.t) =
  match g with
  | H -> "h"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | V -> "sx"
  | Vdg -> "sxdg"
  | Rx a -> Printf.sprintf "rx(%.17g)" a
  | Ry a -> Printf.sprintf "ry(%.17g)" a
  | Rz a -> Printf.sprintf "rz(%.17g)" a
  | Phase a -> Printf.sprintf "p(%.17g)" a

let app_to_string (a : Instruction.app) =
  let prefix = String.concat "" (List.map (fun _ -> "c") a.controls) in
  let operands =
    List.map (Printf.sprintf "q[%d]") (a.controls @ [ a.target ])
  in
  Printf.sprintf "%s%s %s;" prefix (gate_name a.gate)
    (String.concat ", " operands)

let instr_to_string (i : Instruction.t) =
  match i with
  | Unitary a -> app_to_string a
  | Conditioned (c, a) ->
      let test (bit, value) =
        Printf.sprintf "c[%d] == %d" bit (if value then 1 else 0)
      in
      Printf.sprintf "if (%s) { %s }"
        (String.concat " && " (List.map test c.bits))
        (app_to_string a)
  | Measure { qubit; bit } -> Printf.sprintf "c[%d] = measure q[%d];" bit qubit
  | Reset q -> Printf.sprintf "reset q[%d];" q
  | Barrier qs ->
      Printf.sprintf "barrier %s;"
        (String.concat ", " (List.map (Printf.sprintf "q[%d]") qs))

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                          *)

type token =
  | Ident of string
  | Number of float
  | Str of string
  | LParen
  | RParen
  | LBracket
  | RBracket
  | LBrace
  | RBrace
  | Comma
  | Semi
  | Assign
  | EqEq
  | AndAnd

let token_to_string = function
  | Ident s -> s
  | Number f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s
  | LParen -> "("
  | RParen -> ")"
  | LBracket -> "["
  | RBracket -> "]"
  | LBrace -> "{"
  | RBrace -> "}"
  | Comma -> ","
  | Semi -> ";"
  | Assign -> "="
  | EqEq -> "=="
  | AndAnd -> "&&"

(* each token with the line it starts on *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let push t = tokens := (t, !line) :: !tokens in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  let is_number_start c = (c >= '0' && c <= '9') || c = '-' || c = '+' in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
          let rec eol j = if j < n && src.[j] <> '\n' then eol (j + 1) else j in
          go (eol i)
      | '(' -> push LParen; go (i + 1)
      | ')' -> push RParen; go (i + 1)
      | '[' -> push LBracket; go (i + 1)
      | ']' -> push RBracket; go (i + 1)
      | '{' -> push LBrace; go (i + 1)
      | '}' -> push RBrace; go (i + 1)
      | ',' -> push Comma; go (i + 1)
      | ';' -> push Semi; go (i + 1)
      | '&' when i + 1 < n && src.[i + 1] = '&' -> push AndAnd; go (i + 2)
      | '=' when i + 1 < n && src.[i + 1] = '=' -> push EqEq; go (i + 2)
      | '=' -> push Assign; go (i + 1)
      | '"' ->
          let rec close j =
            if j >= n then parse_fail "unterminated string"
            else if src.[j] = '"' then j
            else close (j + 1)
          in
          let j = close (i + 1) in
          push (Str (String.sub src (i + 1) (j - i - 1)));
          go (j + 1)
      | c when is_number_start c ->
          let rec num_end j =
            if
              j < n
              && ((src.[j] >= '0' && src.[j] <= '9')
                 || src.[j] = '.' || src.[j] = 'e' || src.[j] = 'E'
                 || ((src.[j] = '-' || src.[j] = '+')
                    && j > i
                    && (src.[j - 1] = 'e' || src.[j - 1] = 'E')))
            then num_end (j + 1)
            else j
          in
          let j = num_end (i + 1) in
          let text = String.sub src i (j - i) in
          (match float_of_string_opt text with
          | Some f -> push (Number f)
          | None -> parse_fail "bad number %S" text);
          go j
      | c when is_ident_char c ->
          let rec id_end j =
            if j < n && is_ident_char src.[j] then id_end (j + 1) else j
          in
          let j = id_end i in
          push (Ident (String.sub src i (j - i)));
          go j
      | c -> parse_fail "unexpected character %C" c
  in
  go 0;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser                                           *)

let base_gate_of_name name : Gate.t option =
  match name with
  | "h" -> Some Gate.H
  | "x" -> Some Gate.X
  | "y" -> Some Gate.Y
  | "z" -> Some Gate.Z
  | "s" -> Some Gate.S
  | "sdg" -> Some Gate.Sdg
  | "t" -> Some Gate.T
  | "tdg" -> Some Gate.Tdg
  | "sx" -> Some Gate.V
  | "sxdg" -> Some Gate.Vdg
  | _ -> None

let parametric_gate_of_name name angle : Gate.t option =
  match name with
  | "rx" -> Some (Gate.Rx angle)
  | "ry" -> Some (Gate.Ry angle)
  | "rz" -> Some (Gate.Rz angle)
  | "p" -> Some (Gate.Phase angle)
  | _ -> None

(* strip the [c] control prefixes: "ccx" -> (2, "x"); the longest
   suffix naming a real gate wins so "csx" parses as controlled-sx *)
let split_gate_name name =
  let len = String.length name in
  let rec try_prefix k =
    if k > len then None
    else
      let base = String.sub name k (len - k) in
      if
        base_gate_of_name base <> None
        || List.mem base [ "rx"; "ry"; "rz"; "p" ]
      then Some (k, base)
      else if k < len && name.[k] = 'c' then try_prefix (k + 1)
      else None
  in
  try_prefix 0

type parser_state = {
  mutable toks : (token * int) list;
  mutable line : int;  (** of the last token read *)
  mutable num_qubits : int option;
  mutable num_bits : int;
  mutable qreg : string;
  mutable creg : string;
  mutable instrs : (int * Instruction.t) list;  (** reversed, by line *)
}

let peek st = match st.toks with [] -> None | (t, _) :: _ -> Some t

let next st =
  match st.toks with
  | [] -> parse_fail "unexpected end of input"
  | (t, line) :: rest ->
      st.toks <- rest;
      st.line <- line;
      t

let expect st want =
  let got = next st in
  if got <> want then
    parse_fail "expected %s, got %s" (token_to_string want)
      (token_to_string got)

let expect_ident st =
  match next st with
  | Ident s -> s
  | t -> parse_fail "expected identifier, got %s" (token_to_string t)

let expect_int st =
  match next st with
  | Number f when Float.is_integer f -> int_of_float f
  | t -> parse_fail "expected integer, got %s" (token_to_string t)

(* [n] of a register declaration [qubit[n]] or [bit[n]] *)
let expect_width st =
  expect st LBracket;
  let n = expect_int st in
  if n < 0 then parse_fail "line %d: negative register width %d" st.line n;
  expect st RBracket;
  n

(* reg[index] *)
let expect_indexed st ~reg =
  let name = expect_ident st in
  if name <> reg then parse_fail "expected register %s, got %s" reg name;
  expect st LBracket;
  let k = expect_int st in
  expect st RBracket;
  k

let rec parse_operands st ~reg acc =
  let k = expect_indexed st ~reg in
  match peek st with
  | Some Comma ->
      expect st Comma;
      parse_operands st ~reg (k :: acc)
  | _ -> List.rev (k :: acc)

let parse_application st name =
  match split_gate_name name with
  | None -> parse_fail "unknown gate %s" name
  | Some (nc, base) ->
      let gate =
        match base_gate_of_name base with
        | Some g ->
            if peek st = Some LParen then
              parse_fail "gate %s takes no parameter" base;
            g
        | None ->
            expect st LParen;
            let angle =
              match next st with
              | Number f -> f
              | t -> parse_fail "expected angle, got %s" (token_to_string t)
            in
            expect st RParen;
            (match parametric_gate_of_name base angle with
            | Some g -> g
            | None -> assert false)
      in
      let operands = parse_operands st ~reg:st.qreg [] in
      if List.length operands <> nc + 1 then
        parse_fail "gate %s expects %d operands, got %d" name (nc + 1)
          (List.length operands);
      let rec split_last acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | x :: rest -> split_last (x :: acc) rest
      in
      let controls, target = split_last [] operands in
      expect st Semi;
      Instruction.app ~controls gate target

let rec parse_cond_tests st acc =
  (* c[i] == v, optionally parenthesized *)
  let parenthesized = peek st = Some LParen in
  if parenthesized then expect st LParen;
  let bit = expect_indexed st ~reg:st.creg in
  expect st EqEq;
  let v = expect_int st in
  if parenthesized then expect st RParen;
  let acc = (bit, v = 1) :: acc in
  match peek st with
  | Some AndAnd ->
      expect st AndAnd;
      parse_cond_tests st acc
  | _ -> List.rev acc

let parse_statement st =
  let first = next st in
  let line = st.line in
  let add i = st.instrs <- (line, i) :: st.instrs in
  match first with
  | Ident "OPENQASM" ->
      (match next st with
      | Number _ -> ()
      | t -> parse_fail "expected version, got %s" (token_to_string t));
      expect st Semi
  | Ident "include" ->
      (match next st with
      | Str _ -> ()
      | t -> parse_fail "expected include path, got %s" (token_to_string t));
      expect st Semi
  | Ident "qubit" ->
      let n = expect_width st in
      if n > Circ.max_qubits then
        parse_fail "line %d: %d qubits, more than any engine runs (%d)" st.line
          n Circ.max_qubits;
      st.qreg <- expect_ident st;
      st.num_qubits <- Some n;
      expect st Semi
  | Ident "bit" ->
      let n = expect_width st in
      (* the register's upper bound is Circ.create's *)
      (match Circ.create ~roles:[||] ~num_bits:n [] with
      | (_ : Circ.t) -> ()
      | exception Invalid_argument msg -> parse_fail "line %d: %s" st.line msg);
      st.creg <- expect_ident st;
      st.num_bits <- n;
      expect st Semi
  | Ident "reset" ->
      let q = expect_indexed st ~reg:st.qreg in
      expect st Semi;
      add (Instruction.Reset q)
  | Ident "barrier" ->
      let qs = parse_operands st ~reg:st.qreg [] in
      expect st Semi;
      add (Instruction.Barrier qs)
  | Ident "if" ->
      expect st LParen;
      let bits = parse_cond_tests st [] in
      expect st RParen;
      expect st LBrace;
      let name = expect_ident st in
      let app = parse_application st name in
      expect st RBrace;
      add (Instruction.Conditioned ({ Instruction.bits }, app))
  | Ident name when name = st.creg ->
      (* c[i] = measure q[j]; *)
      expect st LBracket;
      let bit = expect_int st in
      expect st RBracket;
      expect st Assign;
      (match next st with
      | Ident "measure" -> ()
      | t -> parse_fail "expected measure, got %s" (token_to_string t));
      let qubit = expect_indexed st ~reg:st.qreg in
      expect st Semi;
      add (Instruction.Measure { qubit; bit })
  | Ident name ->
      add (Instruction.Unitary (parse_application st name))
  | t -> parse_fail "unexpected token %s" (token_to_string t)

let parse ?roles source =
  let st =
    {
      toks = tokenize source;
      line = 1;
      num_qubits = None;
      num_bits = 0;
      qreg = "q";
      creg = "c";
      instrs = [];
    }
  in
  while st.toks <> [] do
    parse_statement st
  done;
  let num_qubits =
    match st.num_qubits with
    | Some n -> n
    | None -> parse_fail "missing qubit declaration"
  in
  let roles =
    match roles with
    | Some r ->
        if Array.length r <> num_qubits then
          invalid_arg "Qasm.parse: roles length mismatch";
        r
    | None -> Array.make num_qubits Circ.Data
  in
  let instrs = List.rev st.instrs in
  List.iter
    (fun (line, i) ->
      if not (Instruction.well_formed ~num_qubits ~num_bits:st.num_bits i) then
        parse_fail
          "line %d: ill-formed %s (%d qubits, %d bits: an index out of \
           range or a qubit named twice)"
          line (Instruction.to_string i) num_qubits st.num_bits)
    instrs;
  Circ.create ~roles ~num_bits:st.num_bits (List.map snd instrs)

let to_string ?(name = "dqc_circuit") c =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "OPENQASM 3.0;\n";
  Buffer.add_string buf "include \"stdgates.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "// %s\n" name);
  Buffer.add_string buf (Printf.sprintf "qubit[%d] q;\n" (Circ.num_qubits c));
  if Circ.num_bits c > 0 then
    Buffer.add_string buf (Printf.sprintf "bit[%d] c;\n" (Circ.num_bits c));
  List.iter
    (fun i ->
      Buffer.add_string buf (instr_to_string i);
      Buffer.add_char buf '\n')
    (Circ.instructions c);
  Buffer.contents buf
