(* Hot-path optimization invariance tests.

   The pooling (Bitio.Pool), codec caching (Bitio.Memo) and native-limb
   PRNG paths are pure performance changes: every test here pins the
   contract that they leave results, costs and wire bits exactly as the
   unoptimized paths produce them — for all registered protocols, under
   injected channel damage, and across domain counts. *)

open Intersect

let iset = Alcotest.testable Iset.pp Iset.equal
let bits_t = Alcotest.testable Bitio.Bits.pp Bitio.Bits.equal
let check_int = Alcotest.(check int)

let universe = 1 lsl 16

(* Both caches off: the pre-optimization execution path. *)
let unoptimized f = Bitio.Pool.bypassed (fun () -> Bitio.Memo.bypassed f)

let run_protocol ~name ~k =
  let protocol = Workload.Regress.protocol_of ~name ~k in
  let pair =
    Workload.Setgen.pair_with_overlap
      (Prng.Rng.of_int (1000 + (String.length name * 37) + k))
      ~universe ~size_s:k ~size_t:k ~overlap:(k / 2)
  in
  protocol.Protocol.run (Prng.Rng.of_int 123) ~universe pair.Workload.Setgen.s
    pair.Workload.Setgen.t

(* Every registered protocol: pooled/cached vs bypassed runs must agree on
   outputs and on every deterministic cost field. *)
let test_registered_suite_bypass_identical () =
  List.iter
    (fun name ->
      let k = 48 in
      let baseline = unoptimized (fun () -> run_protocol ~name ~k) in
      let optimized = run_protocol ~name ~k in
      Alcotest.check iset (name ^ " alice") baseline.Protocol.alice optimized.Protocol.alice;
      Alcotest.check iset (name ^ " bob") baseline.Protocol.bob optimized.Protocol.bob;
      check_int (name ^ " bits") baseline.Protocol.cost.Commsim.Cost.total_bits
        optimized.Protocol.cost.Commsim.Cost.total_bits;
      check_int (name ^ " messages") baseline.Protocol.cost.Commsim.Cost.messages
        optimized.Protocol.cost.Commsim.Cost.messages;
      check_int (name ^ " rounds") baseline.Protocol.cost.Commsim.Cost.rounds
        optimized.Protocol.cost.Commsim.Cost.rounds)
    Workload.Regress.protocol_names

(* Payload builders: the pooled writers must emit byte-identical wire bits
   (not just equal costs). *)
let test_wire_payloads_bit_identical () =
  let set = [| 3; 17; 100; 4095; 65535 |] in
  let iset_of a = Iset.of_array a in
  let pooled = Wire.of_set (iset_of set) in
  let plain = unoptimized (fun () -> Wire.of_set (iset_of set)) in
  Alcotest.check bits_t "of_set" plain pooled;
  Alcotest.check bits_t "gamma_msg" (unoptimized (fun () -> Wire.gamma_msg 777)) (Wire.gamma_msg 777);
  let flags = Array.init 97 (fun i -> i mod 3 = 0) in
  Alcotest.check bits_t "bitmap_msg" (unoptimized (fun () -> Wire.bitmap_msg flags))
    (Wire.bitmap_msg flags)

(* The binomial memo is invisible: cached coefficients and codec widths
   equal the direct bignum computation, and the enumerative codec emits
   identical bits with and without the cache. *)
let test_memo_transparent () =
  List.iter
    (fun (n, k) ->
      let cached = Bitio.Memo.binomial n k in
      let direct = Bitio.Memo.bypassed (fun () -> Bitio.Memo.binomial n k) in
      Alcotest.(check bool)
        (Printf.sprintf "C(%d,%d)" n k)
        true
        (Bitio.Bignat.equal direct cached);
      check_int
        (Printf.sprintf "bits C(%d,%d)" n k)
        (Bitio.Memo.bypassed (fun () -> Bitio.Memo.binomial_bits ~n ~k))
        (Bitio.Memo.binomial_bits ~n ~k))
    [ (0, 0); (1, 0); (64, 32); (256, 17); (1024, 3); (4096, 2) ];
  let set = Array.init 24 (fun i -> (i * 131) mod 4096) in
  Array.sort compare set;
  let encode () =
    let buf = Bitio.Bitbuf.create ~capacity:256 () in
    Bitio.Enum_codec.write buf ~universe:4096 set;
    Bitio.Bitbuf.contents buf
  in
  Alcotest.check bits_t "enum codec" (unoptimized encode) (encode ())

(* Injected channel damage: the soak harness drives Faults-damaged
   executions end to end; its full report (including damage tallies and
   per-cell outcomes) must not notice the caches. *)
let test_faults_damage_bypass_identical () =
  let report () =
    Stats.Json.to_string (Workload.Soak.to_json (Workload.Soak.run ~domains:1 Workload.Soak.smoke))
  in
  let baseline = unoptimized report in
  Alcotest.(check string) "soak report under damage" baseline (report ())

(* Domain-parallel trials: the DLS-backed pool and memo are per-domain, so
   running the same seeded trials on one or two domains must produce the
   same per-trial costs. *)
let test_domains_identical () =
  let trial i =
    let outcome = run_protocol ~name:"bucket" ~k:(32 + (4 * i)) in
    ( outcome.Protocol.cost.Commsim.Cost.total_bits,
      outcome.Protocol.cost.Commsim.Cost.messages,
      Iset.cardinal outcome.Protocol.alice )
  in
  let seq = Engine.Pool.map ~domains:1 ~trials:4 trial in
  let par = Engine.Pool.map ~domains:2 ~trials:4 trial in
  Array.iteri
    (fun i (bits, msgs, card) ->
      let bits', msgs', card' = par.(i) in
      check_int (Printf.sprintf "trial %d bits" i) bits bits';
      check_int (Printf.sprintf "trial %d messages" i) msgs msgs';
      check_int (Printf.sprintf "trial %d cardinal" i) card card')
    seq

(* The native-limb SplitMix64 against the published vectors and an inline
   Int64 reference, and the unboxed [step]/[out_hi]/[out_lo] face against
   [next]. *)
let ref_splitmix state =
  let s = Int64.add !state 0x9E3779B97F4A7C15L in
  state := s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let test_splitmix_reference () =
  let g = Prng.Splitmix64.create 0L in
  List.iter
    (fun expected -> Alcotest.(check int64) "vector (seed 0)" expected (Prng.Splitmix64.next g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  for seed = 0 to 99 do
    let s = Int64.mul (Int64.of_int ((seed * 2654435761) + 1)) 0x9E3779B97F4A7C15L in
    let g = Prng.Splitmix64.create s in
    let r = ref s in
    for _ = 1 to 200 do
      Alcotest.(check int64) "limb = Int64 reference" (ref_splitmix r) (Prng.Splitmix64.next g)
    done
  done;
  let a = Prng.Splitmix64.create 42L and b = Prng.Splitmix64.create 42L in
  for _ = 1 to 100 do
    let boxed = Prng.Splitmix64.next a in
    Prng.Splitmix64.step b;
    let unboxed =
      Int64.logor
        (Int64.shift_left (Int64.of_int (Prng.Splitmix64.out_hi b)) 32)
        (Int64.of_int (Prng.Splitmix64.out_lo b))
    in
    Alcotest.(check int64) "step/out = next" boxed unboxed
  done

(* The unboxed draw paths (bits / bool / float) against their Int64
   formulations, sharing one reference stream. *)
let test_rng_draws_reference () =
  let seed = 0x1234_5678_9ABCL in
  let rng = Prng.Rng.of_seed seed in
  let r = ref seed in
  for i = 1 to 500 do
    let width = 1 + (i * 17 mod 62) in
    let want = Int64.to_int (Int64.shift_right_logical (ref_splitmix r) (64 - width)) in
    check_int "bits" want (Prng.Rng.bits rng ~width);
    Alcotest.(check bool) "bool" (Int64.compare (ref_splitmix r) 0L < 0) (Prng.Rng.bool rng);
    let wantf =
      float_of_int (Int64.to_int (Int64.shift_right_logical (ref_splitmix r) 11))
      /. 9007199254740992.0
    in
    Alcotest.(check (float 0.0)) "float" wantf (Prng.Rng.float rng)
  done

(* The native-limb FNV-1a behind [Rng.with_label], via an inline Int64
   reference of the full label-derivation pipeline. *)
let ref_fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L) s;
  !h

let test_with_label_reference () =
  List.iter
    (fun label ->
      let root = 0x0FEDCBA987654321L in
      let derived = Prng.Rng.with_label (Prng.Rng.of_seed root) label in
      let reference =
        Prng.Rng.of_seed (Prng.Splitmix64.mix (Int64.logxor root (ref_fnv1a64 label)))
      in
      for _ = 1 to 50 do
        check_int ("with_label " ^ label)
          (Prng.Rng.bits reference ~width:62)
          (Prng.Rng.bits derived ~width:62)
      done)
    [ ""; "a"; "regress/bucket/k1024"; "eqb/joint/g7/t3"; "tree/bi/leaf12/run2" ]

(* ---------- in-place tag derivation ---------- *)

let draws rng = List.init 12 (fun _ -> Prng.Rng.bits rng ~width:62)

(* What a caller can observe of a generator: its draws, and what a further
   label derivation from it yields (which reads the root halves). *)
let observe rng =
  let d = Prng.Rng.Label.start rng in
  Prng.Rng.Label.add d "next/";
  Prng.Rng.Label.add_int d 7;
  (draws (Prng.Rng.with_label rng "further"), draws (Prng.Rng.Label.finish d), draws rng)

let eq_label_coords =
  QCheck.(
    quad (map Int64.of_int int) (int_range 0 1_000_000) (int_range 0 60) (int_range (-1000) 1_000_000))

(* Eq_batch's derivation: the ["eqb/g<gid>/t<iter>/i"] prefix folded once,
   copied into a scratch derivation per instance, finished into a scratch
   generator that already served an unrelated derivation. *)
let prop_prefix_finish_into =
  QCheck.Test.make ~name:"prefix copy + finish_into = full fold" ~count:300 eq_label_coords
    (fun (seed, gid, iter, idx) ->
      let root = Prng.Rng.of_seed seed in
      let full () =
        let d = Prng.Rng.Label.start root in
        Prng.Rng.Label.add d "eqb/g";
        Prng.Rng.Label.add_int d gid;
        Prng.Rng.Label.add d "/t";
        Prng.Rng.Label.add_int d iter;
        Prng.Rng.Label.add d "/i";
        Prng.Rng.Label.add_int d idx;
        Prng.Rng.Label.finish d
      in
      let prefix = Prng.Rng.Label.start root in
      Prng.Rng.Label.add prefix "eqb/g";
      Prng.Rng.Label.add_int prefix gid;
      Prng.Rng.Label.add prefix "/t";
      Prng.Rng.Label.add_int prefix iter;
      Prng.Rng.Label.add prefix "/i";
      (* The scratch derivation starts from another root: [blit] must copy
         the root halves as well as the fold. *)
      let scratch = Prng.Rng.of_int 99 in
      let work = Prng.Rng.Label.start scratch in
      Prng.Rng.Label.add work "unrelated";
      Prng.Rng.Label.finish_into work scratch;
      ignore (draws scratch);
      Prng.Rng.Label.blit ~src:prefix ~dst:work;
      Prng.Rng.Label.add_int work idx;
      Prng.Rng.Label.finish_into work scratch;
      let label = Printf.sprintf "eqb/g%d/t%d/i%d" gid iter idx in
      observe scratch = observe (full ())
      && observe (Prng.Rng.with_label root label) = observe (full ()))

let strhash_widths = List.init 150 (fun i -> i + 1)

(* [redraw] into a function that has held other widths (fewer and more
   lanes) must match [create] from an equal generator state: same draws
   consumed, same tags through [write], [matches] and [apply]. *)
let prop_strhash_redraw_create =
  QCheck.Test.make ~name:"Strhash.redraw = create, widths 1..150" ~count:20
    QCheck.(pair int small_string)
    (fun (seed, text) ->
      let payload = Bitio.Bits.of_string text in
      let scratch = Strhash.create (Prng.Rng.of_int seed) ~bits:150 in
      List.for_all
        (fun bits ->
          let label = "w" ^ string_of_int bits in
          let g_ref = Prng.Rng.with_label (Prng.Rng.of_int seed) label in
          let g_in = Prng.Rng.with_label (Prng.Rng.of_int seed) label in
          let reference = Strhash.create g_ref ~bits in
          Strhash.redraw scratch g_in ~bits;
          let written fn =
            let buf = Bitio.Bitbuf.create () in
            Strhash.write fn buf payload;
            Strhash.write_int fn buf (seed land 0xFFFFFF);
            Bitio.Bitbuf.contents buf
          in
          let tag = Strhash.apply reference payload in
          let matches fn t =
            let reader = Bitio.Bitreader.create t in
            let ok = Strhash.matches fn reader payload in
            (ok, Bitio.Bitreader.position reader)
          in
          Strhash.bits scratch = bits
          && Bitio.Bits.equal (written scratch) (written reference)
          && Bitio.Bits.equal (Strhash.apply scratch payload) tag
          && Bitio.Bits.equal (Strhash.apply_int scratch 12345) (Strhash.apply_int reference 12345)
          && matches scratch tag = (true, bits)
          && matches scratch (Bitio.Bits.flip tag (bits - 1)) = (false, bits)
          && draws g_in = draws g_ref)
        (strhash_widths @ [ 1; 97; 32; 49 ]))

(* The range forms on a payload embedded between other bits must tag it
   exactly as [write]/[matches] tag the payload on its own. *)
let prop_strhash_range =
  QCheck.Test.make ~name:"Strhash range forms = slice copied out" ~count:300
    QCheck.(quad (int_range 1 130) int (int_range 0 40) small_string)
    (fun (bits, seed, pre, text) ->
      let payload = Bitio.Bits.of_string text in
      let len = Bitio.Bits.length payload in
      let fn = Strhash.create (Prng.Rng.of_int seed) ~bits in
      let whole = Bitio.Bitbuf.create () in
      Bitio.Bitbuf.write_bits whole ~width:pre ((1 lsl pre) - 1);
      Bitio.Bitbuf.append whole payload;
      Bitio.Bitbuf.write_bits whole ~width:7 0x55;
      let view = Bitio.Bitbuf.view whole in
      let tag = Strhash.apply fn payload in
      let ranged = Bitio.Bitbuf.create () in
      Strhash.write_range fn ranged view ~pos:pre ~len;
      let matches t =
        let reader = Bitio.Bitreader.create t in
        let ok = Strhash.matches_range fn reader view ~pos:pre ~len in
        (ok, Bitio.Bitreader.position reader)
      in
      Bitio.Bits.equal (Bitio.Bitbuf.contents ranged) tag
      && matches tag = (true, bits)
      && matches (Bitio.Bits.flip tag 0) = (false, bits))

(* ---------- lane-int tag sets vs the Bits.key tables they replaced ---------- *)

let tag_set_input =
  QCheck.(
    quad (int_range 1 130) int
      (list_of_size Gen.(0 -- 200) (int_bound 600))
      (list_of_size Gen.(0 -- 200) (int_bound 600)))

(* [theirs]' tags as the other party writes them, then [near]'s tags
   with their last bit flipped (equal to a real tag in every lane but the
   last), then a marker so that where each reader stops is checked
   too. *)
let written_tags ?(near = [||]) fn theirs =
  let buf = Bitio.Bitbuf.create () in
  Basic_intersection.write_tags buf fn theirs;
  Array.iter (fun x -> Bitio.Bitbuf.append buf (Bitio.Bits.flip (Strhash.apply_int fn x) (Strhash.bits fn - 1))) near;
  Bitio.Bitbuf.write_bits buf ~width:5 21;
  Bitio.Bitbuf.contents buf

let key_table reader ~bits ~count =
  let table = Hashtbl.create 16 in
  let keys = Array.init count (fun _ -> Bitio.Bits.key (Bitio.Bitreader.read_blob reader ~bits)) in
  Array.iter (fun key -> Hashtbl.replace table key ()) keys;
  (table, keys)

(* Widths 1..130 cover one, two and three lanes; the narrow ones collide
   often, so false positives are compared as well as true hits.  The
   scratch set held a wider, larger set before, as in the tree's
   re-runs. *)
let prop_tag_set_reference =
  QCheck.Test.make ~name:"tag set = Bits.key table, widths 1..130" ~count:400 tag_set_input
    (fun (bits, seed, theirs, mine) ->
      let theirs = Iset.of_list theirs and mine = Iset.of_list mine in
      let near = Iset.filter (fun x -> x mod 3 = 0) mine in
      let count = Array.length theirs + Array.length near in
      let fn = Strhash.create (Prng.Rng.of_int seed) ~bits in
      let payload = written_tags ~near fn theirs in
      let r_ref = Bitio.Bitreader.create payload in
      let table, _ = key_table r_ref ~bits ~count in
      let want = Iset.filter (fun x -> Hashtbl.mem table (Bitio.Bits.key (Strhash.apply_int fn x))) mine in
      let r_new = Bitio.Bitreader.create payload in
      let got = Basic_intersection.filter_by_tags fn (Basic_intersection.read_tag_keys r_new ~bits ~count) mine in
      let scratch = Basic_intersection.tags_create () in
      let wide = Strhash.create (Prng.Rng.of_int (seed + 1)) ~bits:130 in
      Basic_intersection.read_tags_into scratch
        (Bitio.Bitreader.create (written_tags wide (Array.init 200 Fun.id)))
        ~bits:130 ~count:200;
      let r_scratch = Bitio.Bitreader.create payload in
      Basic_intersection.read_tags_into scratch r_scratch ~bits ~count;
      let got_scratch = Iset.filter (Basic_intersection.mem_tag scratch fn) mine in
      Iset.equal want got
      && Iset.equal want got_scratch
      && Bitio.Bitreader.position r_new = Bitio.Bitreader.position r_ref
      && Bitio.Bitreader.position r_scratch = Bitio.Bitreader.position r_ref)

(* Incremental's arrival-order membership: each of their tags, in the
   order they arrive, against this side's own tags. *)
let prop_read_members_reference =
  QCheck.Test.make ~name:"read_members = Bits.key lookups" ~count:300 tag_set_input
    (fun (bits, seed, theirs, mine) ->
      let theirs = Array.of_list theirs and mine = Iset.of_list mine in
      let count = Array.length theirs in
      let fn = Strhash.create (Prng.Rng.of_int seed) ~bits in
      let payload = written_tags fn theirs in
      let r_ref = Bitio.Bitreader.create payload in
      let _, keys = key_table r_ref ~bits ~count in
      let mine_keys = Array.map (fun x -> Bitio.Bits.key (Strhash.apply_int fn x)) mine in
      let want = Array.map (fun key -> Array.mem key mine_keys) keys in
      let r_new = Bitio.Bitreader.create payload in
      let set, found =
        Basic_intersection.read_members (Basic_intersection.tags_of_set fn mine) r_new ~count
      in
      let hits x = Array.mem (Bitio.Bits.key (Strhash.apply_int fn x)) keys in
      found = want
      && Iset.equal (Iset.filter hits mine) (Basic_intersection.filter_by_tags fn set mine)
      && Bitio.Bitreader.position r_new = Bitio.Bitreader.position r_ref)

(* ---------- native-int arithmetic vs the Int64 reference ---------- *)

(* Carter-Wegman against [Modarith]: [create] draws a then b from the
   generator, so a twin generator in the same state reproduces them. *)
let cw_reference ~seed ~universe ~range x =
  let rng = Prng.Rng.of_int seed in
  let p = Hashing.Prime.next_prime (max universe 2) in
  let a = 1 + Prng.Rng.int rng (p - 1) in
  let b = Prng.Rng.int rng p in
  let p64 = Int64.of_int p in
  let v =
    Hashing.Modarith.addmod
      (Hashing.Modarith.mulmod (Int64.of_int a) (Int64.of_int x) p64)
      (Int64.of_int b) p64
  in
  Int64.to_int (Int64.unsigned_rem v (Int64.of_int range))

(* Universes whose prime lands just below 2^31 (2^31 - 1 is prime), just
   above it (2^31 + 11), well inside either path, and random ones. *)
let cw_universes = [ 2; 1000; 1 lsl 20; (1 lsl 31) - 2; (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 5; 1 lsl 44 ]

let prop_cw_native =
  QCheck.Test.make ~name:"Carter_wegman.hash = Int64 reference" ~count:300
    QCheck.(quad int (int_range 1 (1 lsl 40)) (int_range 1 100_000) (int_range 0 (1 lsl 62 - 1)))
    (fun (seed, random_universe, range, raw) ->
      List.for_all
        (fun universe ->
          let h = Hashing.Carter_wegman.create (Prng.Rng.of_int seed) ~universe ~range in
          (* x below the universe (the contract) and past the 2^31 bound. *)
          List.for_all
            (fun x -> Hashing.Carter_wegman.hash h x = cw_reference ~seed ~universe ~range x)
            [ 0; universe - 1; raw mod universe; raw land ((1 lsl 31) - 1); (1 lsl 31) - 1; 1 lsl 31; raw ])
        (random_universe :: cw_universes))

(* The Int64 Miller-Rabin that [Prime.is_prime] used for every n. *)
let is_prime_reference n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    let n64 = Int64.of_int n in
    let d = ref (n - 1) and s = ref 0 in
    while !d mod 2 = 0 do
      d := !d / 2;
      incr s
    done;
    List.for_all
      (fun a ->
        let a = a mod n in
        a = 0
        ||
        let x = ref (Hashing.Modarith.powmod (Int64.of_int a) (Int64.of_int !d) n64) in
        !x = 1L
        || !x = Int64.of_int (n - 1)
        ||
        let found = ref false and r = ref 1 in
        while (not !found) && !r < !s do
          x := Hashing.Modarith.mulmod !x !x n64;
          if !x = Int64.of_int (n - 1) then found := true;
          incr r
        done;
        !found)
      [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]
  end

let rec next_prime_reference n = if is_prime_reference n then n else next_prime_reference (n + 1)

let prop_prime_native =
  QCheck.Test.make ~name:"Prime native = Int64 ref on [2, 2^33]" ~count:2000
    QCheck.(int_range 2 (1 lsl 33))
    (fun n ->
      Hashing.Prime.is_prime n = is_prime_reference n
      && Hashing.Prime.next_prime n = next_prime_reference n)

let test_prime_native_boundary () =
  for n = (1 lsl 31) - 300 to (1 lsl 31) + 300 do
    if Hashing.Prime.is_prime n <> is_prime_reference n then Alcotest.failf "is_prime %d disagrees" n
  done;
  (* Strong pseudoprimes to small bases, below and above the bound. *)
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "is_prime %d" n) (is_prime_reference n) (Hashing.Prime.is_prime n))
    [ 2047; 1373653; 25326001; 3215031751; 2152302898747; 3474749660383; 341550071728321 ];
  check_int "next_prime just below 2^31" ((1 lsl 31) - 1) (Hashing.Prime.next_prime ((1 lsl 31) - 18));
  check_int "next_prime from 2^31" ((1 lsl 31) + 11) (Hashing.Prime.next_prime (1 lsl 31))

(* ---------- pinned k = 1024 / 4096 transcripts ---------- *)

(* Cost fields and outputs of fixed-seed runs, recorded before the
   allocation-free Eq_batch / Strhash / Carter-Wegman paths landed (the
   tree-r3, tree-log-star, budgeted, one-round and 66-bit
   Basic-Intersection cases before the tree's own hot path did): any
   change to a draw, tag, bit, message or round moves one of them. *)
type pinned = {
  bits : int;
  messages : int;
  rounds : int;
  alice_sent : int;
  bob_sent : int;
  alice_out : int;
  bob_out : int;
  out_sum : int;  (* order-sensitive checksum of Alice's output *)
}

(* Names beyond the registered ones: the budgeted tree at a factor small
   enough that stage 1 starts over budget and takes the fallback, and
   Basic-Intersection at a failure target whose 66-bit tags span two
   lanes. *)
let pin_protocol ~name ~k =
  match name with
  | "tree-budgeted" -> Tree_protocol.protocol_budgeted ~budget_factor:4 ~k ~r:2 ()
  | "basic-1e-12" -> Basic_intersection.protocol ~failure:1e-12
  | name -> Workload.Regress.protocol_of ~name ~k

let pinned_cases =
  [
    ( "bucket", 1024, 1,
      { bits = 24577; messages = 352; rounds = 352; alice_sent = 18972; bob_sent = 5605;
        alice_out = 512; bob_out = 512; out_sum = 111829151 } );
    ( "bucket", 1024, 2,
      { bits = 24947; messages = 352; rounds = 352; alice_sent = 19412; bob_sent = 5535;
        alice_out = 512; bob_out = 512; out_sum = 320290417 } );
    ( "tree-r2", 4096, 1,
      { bits = 228610; messages = 6; rounds = 6; alice_sent = 153719; bob_sent = 74891;
        alice_out = 2048; bob_out = 2048; out_sum = 142424599 } );
    ( "tree-r2", 4096, 2,
      { bits = 231056; messages = 6; rounds = 6; alice_sent = 154966; bob_sent = 76090;
        alice_out = 2048; bob_out = 2048; out_sum = 1053219027 } );
    ( "tree-r3", 64, 1,
      { bits = 2693; messages = 8; rounds = 8; alice_sent = 1843; bob_sent = 850;
        alice_out = 32; bob_out = 32; out_sum = 278098726 } );
    ( "tree-r3", 4096, 1,
      { bits = 183502; messages = 10; rounds = 10; alice_sent = 130634; bob_sent = 52868;
        alice_out = 2048; bob_out = 2048; out_sum = 142424599 } );
    ( "tree-log-star", 64, 1,
      { bits = 2474; messages = 10; rounds = 10; alice_sent = 1772; bob_sent = 702;
        alice_out = 32; bob_out = 32; out_sum = 278098726 } );
    ( "tree-log-star", 4096, 1,
      { bits = 167706; messages = 12; rounds = 12; alice_sent = 125807; bob_sent = 41899;
        alice_out = 2048; bob_out = 2048; out_sum = 142424599 } );
    ( "tree-budgeted", 4096, 1,
      { bits = 291986; messages = 6; rounds = 6; alice_sent = 188400; bob_sent = 103586;
        alice_out = 2048; bob_out = 2048; out_sum = 142424599 } );
    ( "one-round", 1024, 1,
      { bits = 81962; messages = 2; rounds = 1; alice_sent = 40981; bob_sent = 40981;
        alice_out = 512; bob_out = 512; out_sum = 111829151 } );
    ( "basic-1e-12", 4096, 1,
      { bits = 540722; messages = 4; rounds = 4; alice_sent = 270361; bob_sent = 270361;
        alice_out = 2048; bob_out = 2048; out_sum = 142424599 } );
  ]

let test_pinned_transcripts () =
  let universe = 1 lsl 20 in
  List.iter
    (fun (name, k, seed, want) ->
      let protocol = pin_protocol ~name ~k in
      let root = Prng.Rng.of_int seed in
      let pair =
        Workload.Setgen.pair_with_overlap (Prng.Rng.with_label root "pin/pair") ~universe ~size_s:k
          ~size_t:k ~overlap:(k / 2)
      in
      let o =
        protocol.Protocol.run (Prng.Rng.with_label root "pin/protocol") ~universe
          pair.Workload.Setgen.s pair.Workload.Setgen.t
      in
      let c = o.Protocol.cost in
      let got =
        {
          bits = c.Commsim.Cost.total_bits;
          messages = c.Commsim.Cost.messages;
          rounds = c.Commsim.Cost.rounds;
          alice_sent = c.Commsim.Cost.players.(0).Commsim.Cost.sent_bits;
          bob_sent = c.Commsim.Cost.players.(1).Commsim.Cost.sent_bits;
          alice_out = Iset.cardinal o.Protocol.alice;
          bob_out = Iset.cardinal o.Protocol.bob;
          out_sum = Array.fold_left (fun acc x -> ((acc * 1000003) + x) land 0x3FFFFFFF) 17 o.Protocol.alice;
        }
      in
      let field what f = check_int (Printf.sprintf "%s k=%d seed=%d %s" name k seed what) (f want) (f got) in
      field "bits" (fun p -> p.bits);
      field "messages" (fun p -> p.messages);
      field "rounds" (fun p -> p.rounds);
      field "alice sent" (fun p -> p.alice_sent);
      field "bob sent" (fun p -> p.bob_sent);
      field "alice output" (fun p -> p.alice_out);
      field "bob output" (fun p -> p.bob_out);
      field "output checksum" (fun p -> p.out_sum))
    pinned_cases

(* A transport that appends every payload it sends to [wire], so both
   parties' sends land there in send order. *)
let recording wire chan =
  Commsim.Transport.make
    ~send:(fun payload ->
      Buffer.add_string wire (Bitio.Bits.key payload);
      Commsim.Transport.send chan payload)
    ~recv:(fun () -> Commsim.Transport.recv chan)

(* Eq_batch on its own, in both schedules, with every payload either party
   sends recorded in send order: the digest moves if any tag function is
   derived from a different label or drawn differently, even where the
   verdicts and bit counts happen to survive. *)
let eq_batch_transcript ~k ~sequential =
  let r = Prng.Rng.of_int (k + 11) in
  let draw () = Bitio.Bits.of_string (string_of_int (Prng.Rng.int r 1_000_000)) in
  let xs = Array.init k (fun _ -> draw ()) in
  let ys = Array.mapi (fun i x -> if i mod 3 = 0 then x else draw ()) xs in
  let wire = Buffer.create 4096 in
  let shared = Prng.Rng.of_int 5 in
  let (va, vb), cost =
    Commsim.Two_party.run
      ~alice:(fun chan -> Eq_batch.run_alice ~sequential shared (recording wire chan) xs)
      ~bob:(fun chan -> Eq_batch.run_bob ~sequential shared (recording wire chan) ys)
  in
  let count v = Array.fold_left (fun n b -> if b then n + 1 else n) 0 v in
  Printf.sprintf "%d bits, %d messages, %d/%d equal, wire %s" cost.Commsim.Cost.total_bits
    cost.Commsim.Cost.messages (count va) (count vb)
    (Digest.to_hex (Digest.string (Buffer.contents wire)))

let test_pinned_eq_batch () =
  List.iter
    (fun (k, sequential, want) ->
      Alcotest.(check string)
        (Printf.sprintf "eq_batch k=%d sequential=%b" k sequential)
        want (eq_batch_transcript ~k ~sequential))
    [
      (300, false, "4022 bits, 14 messages, 100/100 equal, wire 0c97129447a58bc2f29042f3babe7a66");
      (300, true, "4022 bits, 154 messages, 100/100 equal, wire 11698ba1e9fad52d9eec8fe596195c48");
      (1500, false, "19087 bits, 12 messages, 500/500 equal, wire 73fd72bd9e3953383914af10015bd8b5");
    ]

(* The tree and Basic-Intersection party runners over the pinned input
   pairs, every payload recorded: byte-identical wire, outputs, and the
   tree's failed-leaf and fallback counters. *)
let party_transcript ~k ~seed run =
  let universe = 1 lsl 20 in
  let root = Prng.Rng.of_int seed in
  let pair =
    Workload.Setgen.pair_with_overlap (Prng.Rng.with_label root "pin/pair") ~universe ~size_s:k
      ~size_t:k ~overlap:(k / 2)
  in
  let shared = Prng.Rng.with_label root "pin/protocol" in
  let wire = Buffer.create 4096 in
  let registry = Obsv.Metrics.create () in
  let (a, b), cost =
    Obsv.Metrics.with_registry registry (fun () ->
        Commsim.Two_party.run
          ~alice:(fun chan -> run `Alice shared ~universe (recording wire chan) pair.Workload.Setgen.s)
          ~bob:(fun chan -> run `Bob shared ~universe (recording wire chan) pair.Workload.Setgen.t))
  in
  let counter = Obsv.Metrics.counter_value registry in
  Printf.sprintf "%d bits, %d messages, %d/%d out, %d failed leaves, %d fallbacks, wire %s"
    cost.Commsim.Cost.total_bits cost.Commsim.Cost.messages (Iset.cardinal a) (Iset.cardinal b)
    (counter "tree/failed_leaves") (counter "tree/fallbacks")
    (Digest.to_hex (Digest.string (Buffer.contents wire)))

let tree_run ~budget ~r ~k role rng ~universe chan set =
  Tree_protocol.run_party ?budget role rng ~universe ~r ~k chan set

let basic_run ~failure role rng ~universe:_ chan set =
  match role with
  | `Alice -> Basic_intersection.run_alice rng ~failure chan set
  | `Bob -> Basic_intersection.run_bob rng ~failure chan set

let party_cases =
  let tree ~r ~k = (Printf.sprintf "tree r=%d k=%d" r k, k, tree_run ~budget:None ~r ~k) in
  let log_star k = tree ~r:(max 1 (Iterated_log.log_star k)) ~k in
  [
    tree ~r:2 ~k:64;
    tree ~r:2 ~k:4096;
    tree ~r:3 ~k:64;
    tree ~r:3 ~k:4096;
    log_star 64;
    log_star 4096;
    ( "tree r=2 k=4096 over budget", 4096,
      tree_run ~budget:(Some (4 * 4096 * max 1 (Iterated_log.ilog 2 4096))) ~r:2 ~k:4096 );
    ("basic 1e-12 k=4096", 4096, basic_run ~failure:1e-12);
  ]

let pinned_party_wire =
  [
    "3119 bits, 6 messages, 32/32 out, 84 failed leaves, 0 fallbacks, wire 97762d92ace376582a9ec0236a1d9b2a";
    "228610 bits, 6 messages, 2048/2048 out, 5082 failed leaves, 0 fallbacks, wire c2bb9de591dbc88a945426c2e0fa4b11";
    "2693 bits, 8 messages, 32/32 out, 84 failed leaves, 0 fallbacks, wire 446fc87818580531fb7992a2465d1d46";
    "183502 bits, 10 messages, 2048/2048 out, 5110 failed leaves, 0 fallbacks, wire 94f475c9206e70a9d1e5f1e67de93d4b";
    "2474 bits, 10 messages, 32/32 out, 84 failed leaves, 0 fallbacks, wire f28e70b02e5d2bdd7cfc96fb6d678db6";
    "167706 bits, 12 messages, 2048/2048 out, 5154 failed leaves, 0 fallbacks, wire bc24ed855b248d9a5af46795da2201e2";
    "291986 bits, 6 messages, 2048/2048 out, 5082 failed leaves, 2 fallbacks, wire cd9ed89e68ba69e9fa7ccac32299023c";
    "540722 bits, 4 messages, 2048/2048 out, 0 failed leaves, 0 fallbacks, wire ef5cbb7e34910be797a32fcebfc01bc4";
  ]

let test_pinned_party_wire () =
  List.iter2
    (fun (what, k, run) want ->
      Alcotest.(check string) what want (party_transcript ~k ~seed:1 run))
    party_cases pinned_party_wire

(* ---------- Bitio.Pool exception path ---------- *)

let test_pool_exception_path () =
  let raised = ref None in
  (try
     Bitio.Pool.with_buf (fun buf ->
         raised := Some buf;
         Bitio.Bitbuf.write_bits buf ~width:20 0xABCDE;
         raise Exit)
   with Exit -> ());
  let first = Option.get !raised in
  Bitio.Pool.with_buf (fun buf ->
      Alcotest.(check bool) "writer returned to the pool" true (buf == first);
      check_int "returned reset" 0 (Bitio.Bitbuf.length buf);
      Bitio.Bitbuf.write_bits buf ~width:3 5;
      let fresh = Bitio.Bitbuf.create () in
      Bitio.Bitbuf.write_bits fresh ~width:3 5;
      Alcotest.check bits_t "no stale bits" (Bitio.Bitbuf.contents fresh) (Bitio.Bitbuf.contents buf));
  (try ignore (Bitio.Pool.payload (fun buf -> Bitio.Bitbuf.write_bits buf ~width:8 0xFF; raise Exit))
   with Exit -> ());
  Alcotest.check bits_t "payload after a raising payload" (Bitio.Bits.of_int ~width:4 9)
    (Bitio.Pool.payload (fun buf -> Bitio.Bitbuf.write_bits buf ~width:4 9));
  Bitio.Pool.with_buf (fun outer ->
      Bitio.Bitbuf.write_bits outer ~width:5 17;
      Bitio.Pool.with_buf (fun inner ->
          Alcotest.(check bool) "nested borrows distinct" false (inner == outer);
          check_int "inner reset" 0 (Bitio.Bitbuf.length inner));
      check_int "outer untouched by the nested borrow" 5 (Bitio.Bitbuf.length outer))

let prop_bits_of_int =
  QCheck.Test.make ~name:"Bits.of_int = Bitbuf.write_bits" ~count:500
    QCheck.(pair (int_range 0 62) (int_range 0 max_int))
    (fun (width, raw) ->
      let v = if width = 62 then raw land ((1 lsl 62) - 1) else raw land ((1 lsl width) - 1) in
      let buf = Bitio.Bitbuf.create () in
      Bitio.Bitbuf.write_bits buf ~width v;
      Bitio.Bits.equal (Bitio.Bits.of_int ~width v) (Bitio.Bitbuf.contents buf))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hotpath"
    [
      ( "invariance",
        [
          Alcotest.test_case "registered suite, caches bypassed vs on" `Quick
            test_registered_suite_bypass_identical;
          Alcotest.test_case "wire payloads bit-identical" `Quick test_wire_payloads_bit_identical;
          Alcotest.test_case "binomial memo transparent" `Quick test_memo_transparent;
          Alcotest.test_case "faults damage, caches bypassed vs on" `Slow
            test_faults_damage_bypass_identical;
          Alcotest.test_case "domains 1 vs 2" `Quick test_domains_identical;
        ] );
      ( "prng",
        [
          Alcotest.test_case "splitmix64 limb vs reference" `Quick test_splitmix_reference;
          Alcotest.test_case "rng draws vs reference" `Quick test_rng_draws_reference;
          Alcotest.test_case "with_label vs reference" `Quick test_with_label_reference;
          qt prop_prefix_finish_into;
          qt prop_strhash_redraw_create;
          qt prop_strhash_range;
        ] );
      ("tag sets", [ qt prop_tag_set_reference; qt prop_read_members_reference ]);
      ( "native",
        [
          qt prop_cw_native;
          qt prop_prime_native;
          Alcotest.test_case "prime boundary and pseudoprimes" `Quick test_prime_native_boundary;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "bucket k1024, tree-r2 k4096 transcripts" `Quick test_pinned_transcripts;
          Alcotest.test_case "eq_batch wire, both schedules" `Quick test_pinned_eq_batch;
          Alcotest.test_case "tree and basic wire" `Quick test_pinned_party_wire;
        ] );
      ( "bitio",
        [
          Alcotest.test_case "Pool.with_buf exception path" `Quick test_pool_exception_path;
          qt prop_bits_of_int;
        ] );
    ]
