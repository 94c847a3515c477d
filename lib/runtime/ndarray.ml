(** Dense row-major matrices of float/int/bool: the interpreter's matrix
    values and the [readMatrix]/[writeMatrix] file format.

    The interpreter evaluates lowered CIR loops element by element, so
    this module only allocates ([create], the [init] builtin), reads and
    writes single elements, answers shape queries and does matrix IO.
    Whole-matrix operations are not here: the matrix extension lowers
    them to loops (§III-A).  The remaining helpers ([slice] with [At]/[All],
    [cmp_scalar], the [init_*]/[of_*_array] constructors, [equal],
    [approx_equal]) build and check fixtures for the eddy workloads and
    the tests. *)

type elem = EFloat | EInt | EBool

let elem_name = function EFloat -> "float" | EInt -> "int" | EBool -> "bool"

type buf = F of float array | I of int array | B of bool array
type t = { shape : Shape.t; buf : buf }

exception Type_error of string

exception Io_error of string
(** Structured matrix-file failure ([readMatrix] on a missing, truncated
    or garbage file): the message always names the file, the byte offset
    where reading failed, and what was expected there. *)

let terr fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt
let io_err fmt = Format.kasprintf (fun m -> raise (Io_error m)) fmt

(* Fault-injection sites: every matrix allocation, and the entry of the
   readMatrix builtin. *)
let fp_alloc = Support.Failpoint.register "ndarray.alloc"
let fp_read = Support.Failpoint.register "io.read_matrix"

let shape m = m.shape
let rank m = Shape.rank m.shape
let size m = Shape.size m.shape

let elem m = match m.buf with F _ -> EFloat | I _ -> EInt | B _ -> EBool

(** [dim_size m d] — the [dimSize(m, d)] builtin. *)
let dim_size m d =
  if d < 0 || d >= rank m then
    Shape.err "dimSize: dimension %d out of range for %s" d
      (Shape.to_string m.shape)
  else m.shape.(d)

(** Observation hook fired on every {!create} with the payload size in
    bytes (4 per element, matching the RC registry's accounting).  The
    profiler installs itself here to attribute allocation traffic to the
    source span being executed; [None] costs one load per allocation. *)
let alloc_hook : (int -> unit) option ref = ref None

(** [create e shape] — zero/false-initialised matrix: the [init] builtin.
    The [ndarray.alloc] failpoint fires {e before} the buffer exists or
    the allocation hook runs, modelling an allocation failure that leaves
    no trace behind. *)
let create e sh =
  Support.Failpoint.hit fp_alloc;
  let n = Shape.size sh in
  let buf =
    match e with
    | EFloat -> F (Array.make n 0.)
    | EInt -> I (Array.make n 0)
    | EBool -> B (Array.make n false)
  in
  (match !alloc_hook with Some f -> f (n * 4) | None -> ());
  { shape = Array.copy sh; buf }

let init_float sh f =
  let n = Shape.size sh in
  let a = Array.init n (fun off -> f (Shape.unoffset sh off)) in
  { shape = Array.copy sh; buf = F a }

let init_int sh f =
  let n = Shape.size sh in
  let a = Array.init n (fun off -> f (Shape.unoffset sh off)) in
  { shape = Array.copy sh; buf = I a }

let of_float_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_float_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  { shape = Array.copy sh; buf = F (Array.copy a) }

let of_int_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_int_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  { shape = Array.copy sh; buf = I (Array.copy a) }

let of_bool_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_bool_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  { shape = Array.copy sh; buf = B (Array.copy a) }

(** 1-D int vector from a list. *)
let vec_i xs = of_int_array [| List.length xs |] (Array.of_list xs)

(* --- flat accessors ------------------------------------------------------ *)

let get_flat m off : Scalar.t =
  match m.buf with
  | F a -> Scalar.F a.(off)
  | I a -> Scalar.I a.(off)
  | B a -> Scalar.B a.(off)

let set_flat m off (v : Scalar.t) =
  match (m.buf, v) with
  | F a, Scalar.F x -> a.(off) <- x
  | F a, Scalar.I x -> a.(off) <- float_of_int x
  | I a, Scalar.I x -> a.(off) <- x
  | B a, Scalar.B x -> a.(off) <- x
  | _ ->
      terr "cannot store %s into %s matrix" (Scalar.to_string v)
        (elem_name (elem m))

let get m idx = get_flat m (Shape.offset m.shape idx)
let set m idx v = set_flat m (Shape.offset m.shape idx) v

(** [cmp_scalar op m s ~scalar_left] — the boolean matrix of [m.(i) op s]
    (or [s op m.(i)]), under [Scalar.cmp]'s ordering: the threshold mask
    of Fig 4's [ssh < i]. *)
let cmp_scalar op m s ~scalar_left =
  let r =
    Array.init (size m) (fun i ->
        let x = get_flat m i in
        Scalar.to_bool
          (if scalar_left then Scalar.cmp op s x else Scalar.cmp op x s))
  in
  { shape = Array.copy m.shape; buf = B r }

(* --- indexing (§III-A3) --------------------------------------------------- *)

type index =
  | At of int  (** single position: collapses the dimension *)
  | All  (** [:] *)

(* Selected source positions per dimension + whether the dim collapses. *)
let resolve_dim m d = function
  | At i ->
      if i < 0 || i >= m.shape.(d) then
        Shape.err "index %d out of bounds in dimension %d of %s" i d
          (Shape.to_string m.shape);
      ([| i |], true)
  | All -> (Array.init m.shape.(d) (fun i -> i), false)

let resolve m (spec : index array) =
  if Array.length spec <> rank m then
    Shape.err "indexing with %d subscripts into rank-%d matrix"
      (Array.length spec) (rank m);
  Array.mapi (fun d s -> resolve_dim m d s) spec

(** [slice m spec] — a copy of the selected region.  Dimensions indexed
    with [At] collapse; collapsing every dimension gives a rank-0 matrix
    holding one element. *)
let slice m spec : t =
  let sels = resolve m spec in
  let kept =
    Array.to_list sels
    |> List.filter_map (fun (sel, collapse) ->
           if collapse then None else Some (Array.length sel))
  in
  let out_shape = Array.of_list kept in
  let out = create (elem m) out_shape in
  let src_idx = Array.make (rank m) 0 in
  Shape.iter out_shape (fun out_idx ->
      let k = ref 0 in
      Array.iteri
        (fun d (sel, collapse) ->
          if collapse then src_idx.(d) <- sel.(0)
          else begin
            src_idx.(d) <- sel.(out_idx.(!k));
            incr k
          end)
        sels;
      set out out_idx (get m src_idx));
  out

(* --- structural ----------------------------------------------------------- *)

let equal a b =
  Shape.equal a.shape b.shape
  &&
  match (a.buf, b.buf) with
  | F x, F y -> x = y
  | I x, I y -> x = y
  | B x, B y -> x = y
  | _ -> false

(** Approximate float equality with tolerance, for parallel-vs-serial and
    transformed-vs-baseline comparisons (FP reassociation). *)
let approx_equal ?(eps = 1e-6) a b =
  Shape.equal a.shape b.shape
  &&
  match (a.buf, b.buf) with
  | F x, F y ->
      let ok = ref true in
      Array.iteri
        (fun i v ->
          let d = abs_float (v -. y.(i)) in
          let scale = max 1. (max (abs_float v) (abs_float y.(i))) in
          if d > eps *. scale then ok := false)
        x;
      !ok
  | _ -> equal a b

let pp ppf m =
  let n = size m in
  let elems =
    List.init (min n 16) (fun i -> Scalar.to_string (get_flat m i))
  in
  Fmt.pf ppf "Matrix %s %s {%s%s}" (elem_name (elem m))
    (Shape.to_string m.shape)
    (String.concat ", " elems)
    (if n > 16 then ", …" else "")

(* --- binary I/O (readMatrix / writeMatrix builtins) ----------------------- *)

let magic = "MMAT1\n"

(** [write_file path m] — the [writeMatrix] builtin: a small self-describing
    binary format (magic, elem kind, rank, extents, then elements). *)
let write_file path m =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let kind = match elem m with EFloat -> 'f' | EInt -> 'i' | EBool -> 'b' in
      output_char oc kind;
      output_binary_int oc (rank m);
      Array.iter (output_binary_int oc) m.shape;
      match m.buf with
      | F a -> Array.iter (fun v -> output_string oc (Int64.to_string (Int64.bits_of_float v) ^ "\n")) a
      | I a -> Array.iter (fun v -> output_string oc (string_of_int v ^ "\n")) a
      | B a -> Array.iter (fun v -> output_char oc (if v then '1' else '0')) a)

(* Plausibility bounds on a parsed header: binary garbage can decode to
   any rank/extent, and without these caps a corrupt file turns into a
   multi-gigabyte allocation attempt instead of a diagnostic. *)
let max_rank = 16
let max_extent = 1 lsl 24
let max_elems = 1 lsl 28

(** [read_file path] — the [readMatrix] builtin.  Every failure mode — a
    missing file, wrong magic, an implausible header, truncation or
    garbage in the element stream — raises {!Io_error} naming the file,
    the byte offset where reading failed and what was expected there,
    instead of leaking [End_of_file] / [Failure] / [Sys_error]. *)
let read_file path =
  Support.Failpoint.hit fp_read;
  let ic =
    try open_in_bin path
    with Sys_error m -> io_err "readMatrix %S: cannot open: %s" path m
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* [expected] describes what a well-formed file would contain at
         the failing offset, e.g. "element 3817 of 4800 (float)". *)
      let fail ~expected detail =
        io_err "readMatrix %S: %s at offset %d (expected %s)" path detail
          (pos_in ic) expected
      in
      let guarded ~expected f =
        try f () with
        | End_of_file -> fail ~expected "file is truncated"
        | Failure _ -> fail ~expected "malformed data"
      in
      let m =
        guarded ~expected:(Printf.sprintf "magic %S" magic) (fun () ->
            really_input_string ic (String.length magic))
      in
      if m <> magic then
        io_err "readMatrix %S: bad magic %S at offset 0 (expected %S)" path m
          magic;
      let kind =
        guarded ~expected:"element kind 'f', 'i' or 'b'" (fun () ->
            input_char ic)
      in
      if kind <> 'f' && kind <> 'i' && kind <> 'b' then
        io_err "readMatrix %S: unknown element kind %C at offset %d \
                (expected 'f', 'i' or 'b')"
          path kind
          (pos_in ic - 1);
      let r = guarded ~expected:"rank" (fun () -> input_binary_int ic) in
      if r < 0 || r > max_rank then
        io_err "readMatrix %S: implausible rank %d at offset %d (expected 0..%d)"
          path r (pos_in ic - 4) max_rank;
      let sh =
        Array.init r (fun d ->
            let e =
              guarded
                ~expected:(Printf.sprintf "extent of dimension %d" d)
                (fun () -> input_binary_int ic)
            in
            if e < 0 || e > max_extent then
              io_err
                "readMatrix %S: implausible extent %d in dimension %d at \
                 offset %d (expected 0..%d)"
                path e d (pos_in ic - 4) max_extent;
            e)
      in
      let n = Shape.size sh in
      if n > max_elems then
        io_err "readMatrix %S: shape %s holds %d elements (limit %d)" path
          (Shape.to_string sh) n max_elems;
      let elem i what f =
        guarded
          ~expected:
            (Printf.sprintf "element %d of %d (%s) for shape %s" i n what
               (Shape.to_string sh))
          f
      in
      match kind with
      | 'f' ->
          let a =
            Array.init n (fun i ->
                elem i "float" (fun () ->
                    Int64.float_of_bits (Int64.of_string (input_line ic))))
          in
          { shape = sh; buf = F a }
      | 'i' ->
          let a =
            Array.init n (fun i ->
                elem i "int" (fun () -> int_of_string (input_line ic)))
          in
          { shape = sh; buf = I a }
      | _ ->
          let a =
            Array.init n (fun i ->
                elem i "bool" (fun () ->
                    match input_char ic with
                    | '0' -> false
                    | '1' -> true
                    | c ->
                        io_err
                          "readMatrix %S: bad bool %C for element %d at \
                           offset %d (expected '0' or '1')"
                          path c i (pos_in ic - 1)))
          in
          { shape = sh; buf = B a })
