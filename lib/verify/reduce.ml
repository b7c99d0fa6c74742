(* Normalization of path sums by Amy-style rewriting:

   [Elim]  a path variable y occurring nowhere contributes
           sum_y 1 = 2: drop it, scale -= 2.

   [HH]    y occurring only in the phase, as 4.y.R(rest): the sum over
           y yields 2.[R = 0].  R = 0 identically re-creates [Elim];
           R = 1 kills the whole amplitude; otherwise the constraint
           R = 0 is solved for a linearly occurring variable z
           (z := R xor z substituted everywhere), scale -= 2.

   [omega] y occurring only in the phase, as y.(c + 4.R) with
           c in {2,6}: sum_y omega^{y(c+4R)} = 1 + (+-i).(-1)^R =
           sqrt2.omega^{1+6.L(R)} (c = 2) or sqrt2.omega^{7+2.L(R)}
           (c = 6): drop y, scale -= 1, fold the residue into the
           phase.

   Variables occurring in an output still parametrize the state and
   variables occurring in a recorded observation are pinned by it
   (Pathsum.protected_vars); neither may be eliminated.  HH may solve
   for an observed z, and then the variables of its replacement are
   observed from that substitution on. *)

type stats = { elim : int; hh : int; omega : int; subst : int }

let no_stats = { elim = 0; hh = 0; omega = 0; subst = 0 }

let total s = s.elim + s.hh + s.omega + s.subst

module B = Pathsum.Bexpr
module P = Pathsum.Phase

(* The phase is kept as its terms indexed by variable, so that a
   rewrite touches only the terms holding its variables.  A term whose
   coefficient reaches 0 is dead and never revived.  [occ.(x)] lists
   the terms whose monomial holds [x]; [holding] drops the dead ones
   when it walks the list.  The constant term holds no variable and is
   kept apart. *)
type term = { mono : int list; mutable coef : int }

type work = {
  mutable scale : int;
  mutable terms : term list;  (* every term made, dead ones included *)
  mutable const : int;
  occ : term list array;
  in_outputs : int array;  (* per variable, how many outputs hold it *)
  outputs : B.t array;
  bits : B.t option array;
  mutable ghosts : B.t list;
  live : bool array;
  mutable zero : bool;
  mutable st : stats;
}

(* the live terms whose monomial holds [x] *)
let holding w x =
  let l = w.occ.(x) in
  if List.for_all (fun t -> t.coef <> 0) l then l
  else begin
    let l = List.filter (fun t -> t.coef <> 0) l in
    w.occ.(x) <- l;
    l
  end

let new_term w mono coef =
  let t = { mono; coef } in
  w.terms <- t :: w.terms;
  List.iter (fun x -> w.occ.(x) <- t :: w.occ.(x)) mono

(* phase += c.m, for a sorted monomial [m] and c in 0..7 *)
let add_term w m c =
  if c <> 0 then
    match m with
    | [] -> w.const <- (w.const + c) land 7
    | x :: _ -> (
        match
          List.find_opt
            (fun t -> t.coef <> 0 && List.equal Int.equal t.mono m)
            w.occ.(x)
        with
        | Some t -> t.coef <- (t.coef + c) land 7
        | None -> new_term w m c)

let add_phase w p = List.iter (fun (m, c) -> add_term w m c) (P.terms p)

(* substitute z := e everywhere (phase, outputs, observations): each
   phase term c.z.m becomes c.m.L(e) *)
let subst_everywhere w z e =
  let with_z =
    List.map
      (fun t ->
        let c = t.coef in
        t.coef <- 0;
        (List.filter (fun x -> x <> z) t.mono, c))
      (holding w z)
  in
  let lift = P.terms (P.lift e) in
  List.iter
    (fun (m, c) ->
      List.iter
        (fun (n, d) -> add_term w (B.union_vars n m) ((c * d) land 7))
        lift)
    with_z;
  Array.iteri
    (fun q o ->
      let o' = B.subst z e o in
      if o' != o then begin
        let count k x = w.in_outputs.(x) <- w.in_outputs.(x) + k in
        List.iter (count (-1)) (B.vars o);
        List.iter (count 1) (B.vars o');
        w.outputs.(q) <- o'
      end)
    w.outputs;
  Array.iteri
    (fun b o ->
      match o with
      | Some o -> w.bits.(b) <- Some (B.subst z e o)
      | None -> ())
    w.bits;
  w.ghosts <- List.map (B.subst z e) w.ghosts

(* a variable of R occurring exactly once, as the lone monomial [z]:
   the constraint R = 0 solves to z = R xor z *)
let solvable_var r =
  let monos = B.monomials r in
  List.find_map
    (fun m ->
      match m with
      | [ z ] when not (List.exists (fun n -> n <> m && List.mem z n) monos)
        ->
          Some z
      | _ -> None)
    monos

(* the terms holding [v] are v.Q; the rules need Q = c + 4.R, with c
   the coefficient of the lone [v] *)
let try_var w protected v =
  if (not w.live.(v)) || protected.(v) || w.in_outputs.(v) > 0 then false
  else
    match holding w v with
    | [] ->
        (* absent everywhere *)
        w.live.(v) <- false;
        w.scale <- w.scale - 2;
        w.st <- { w.st with elim = w.st.elim + 1 };
        true
    | terms ->
        let lone t = match t.mono with [ _ ] -> true | _ -> false in
        if List.exists (fun t -> (not (lone t)) && t.coef <> 4) terms then false
        else begin
          let c =
            match List.find_opt lone terms with Some t -> t.coef | None -> 0
          in
          let r_of_rest =
            List.fold_left
              (fun acc t ->
                if lone t then acc
                else
                  B.xor acc
                    (List.fold_left
                       (fun e x -> if x = v then e else B.conj e (B.var x))
                       B.one t.mono))
              B.zero terms
          in
          let drop () = List.iter (fun t -> t.coef <- 0) terms in
          match c with
          | 0 | 4 ->
              let r = if c = 4 then B.not_ r_of_rest else r_of_rest in
              if B.is_zero r then begin
                w.live.(v) <- false;
                w.scale <- w.scale - 2;
                drop ();
                w.st <- { w.st with hh = w.st.hh + 1 };
                true
              end
              else if B.is_const r = Some true then begin
                w.zero <- true;
                true
              end
              else begin
                match solvable_var r with
                | Some z ->
                    let r' = B.xor r (B.var z) in
                    w.live.(v) <- false;
                    w.live.(z) <- false;
                    w.scale <- w.scale - 2;
                    drop ();
                    subst_everywhere w z r';
                    (* an observation of z now observes r' instead *)
                    if protected.(z) then
                      List.iter (fun x -> protected.(x) <- true) (B.vars r');
                    w.st <-
                      { w.st with hh = w.st.hh + 1; subst = w.st.subst + 1 };
                    true
                | None -> false
              end
          | 2 | 6 ->
              w.live.(v) <- false;
              w.scale <- w.scale - 1;
              drop ();
              add_term w [] (if c = 2 then 1 else 7);
              add_phase w (P.scale (if c = 2 then 6 else 2) (P.lift r_of_rest));
              w.st <- { w.st with omega = w.st.omega + 1 };
              true
          | _ -> false
        end

let normalize (ps : Pathsum.t) =
  Obs.with_span "verify.reduce" (fun () ->
      if ps.Pathsum.zero_amplitude then (ps, no_stats)
      else begin
        let n = ps.Pathsum.next_var in
        let w =
          {
            scale = ps.Pathsum.scale;
            terms = [];
            const = 0;
            occ = Array.make n [];
            in_outputs = Array.make n 0;
            outputs = Array.copy ps.Pathsum.outputs;
            bits = Array.copy ps.Pathsum.bits;
            ghosts = ps.Pathsum.ghosts;
            live = Array.make n true;
            zero = false;
            st = no_stats;
          }
        in
        List.iter
          (fun (m, c) -> if m = [] then w.const <- c else new_term w m c)
          (P.terms ps.Pathsum.phase);
        Array.iter
          (fun o ->
            List.iter
              (fun x -> w.in_outputs.(x) <- w.in_outputs.(x) + 1)
              (B.vars o))
          w.outputs;
        (* a ghost observation that substitution collapsed to a
           constant, or that now duplicates another observation (up to
           negation), pins nothing: sweeping it may unblock further
           reduction *)
        let sweep_ghosts () =
          let recorded =
            Array.to_list w.bits |> List.filter_map (fun o -> o)
          in
          let kept = ref [] in
          let swept = ref false in
          List.iter
            (fun g ->
              let dup o = B.equal o g || B.equal o (B.not_ g) in
              if
                B.is_const g <> None
                || List.exists dup recorded
                || List.exists dup !kept
              then swept := true
              else kept := g :: !kept)
            w.ghosts;
          if !swept then w.ghosts <- List.rev !kept;
          !swept
        in
        let changed = ref true in
        let protected = Array.make n false in
        while !changed && not w.zero do
          changed := false;
          if sweep_ghosts () then changed := true;
          Array.fill protected 0 n false;
          List.iter
            (fun x -> protected.(x) <- true)
            (Pathsum.protected_vars
               { ps with Pathsum.bits = w.bits; ghosts = w.ghosts });
          let v = ref 0 in
          while !v < Array.length w.live && not w.zero do
            if try_var w protected !v then changed := true;
            incr v
          done
        done;
        Obs.incr ~n:w.st.elim "verify.reduce.elim";
        Obs.incr ~n:w.st.hh "verify.reduce.hh";
        Obs.incr ~n:w.st.omega "verify.reduce.omega";
        Obs.incr ~n:w.st.subst "verify.reduce.subst";
        let phase =
          P.of_terms
            (([], w.const)
            :: List.filter_map
                 (fun t -> if t.coef = 0 then None else Some (t.mono, t.coef))
                 w.terms)
        in
        ( {
            ps with
            Pathsum.scale = w.scale;
            phase;
            outputs = w.outputs;
            bits = w.bits;
            ghosts = w.ghosts;
            zero_amplitude = w.zero;
          },
          w.st )
      end)
