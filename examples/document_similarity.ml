(* Exact Jaccard similarity between two documents held by different
   servers, via shingling + the intersection protocol.

   Shingle each document into w-grams, hash each shingle to an element of a
   large universe, and run the similarity application: the exact Jaccard
   coefficient of the shingle sets costs O(k) bits — not O(k log n) — and
   unlike min-hash sketches the answer is exact.

   Run with:  dune exec examples/document_similarity.exe *)

let document_a =
  "the quick brown fox jumps over the lazy dog while the lazy dog sleeps \
   in the afternoon sun and dreams of chasing the quick brown fox through \
   the quiet meadow behind the old farmhouse"

let document_b =
  "the quick brown fox jumps over the lazy dog while the sleepy cat watches \
   from the windowsill and dreams of chasing the quick brown fox through \
   the quiet meadow behind the new barn"

let fnv1a64 s =
  let open Int64 in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := logxor !h (of_int (Char.code c));
      h := mul !h 0x100000001B3L)
    s;
  !h

(* The [w]-word shingles of [text], FNV-1a-hashed into [2^universe_bits]:
   a public embedding, so equal shingles collide on purpose. *)
let shingles ~w ~universe_bits text =
  if w < 1 || universe_bits < 1 || universe_bits > 60 then invalid_arg "shingles";
  let words = String.split_on_char ' ' text |> List.filter (fun s -> s <> "") in
  let arr = Array.of_list words in
  let hash s = Int64.to_int (Int64.shift_right_logical (fnv1a64 s) (64 - universe_bits)) in
  List.init
    (max 0 (Array.length arr - w + 1))
    (fun i -> hash (String.concat " " (List.init w (fun j -> arr.(i + j)))))
  |> Iset.of_list

let () =
  let w = 3 in
  let s = shingles ~w ~universe_bits:40 document_a in
  let t = shingles ~w ~universe_bits:40 document_b in
  let universe = 1 lsl 40 in
  let result = Apps.Similarity.run (Prng.Rng.of_int 2014) ~universe s t in
  Printf.printf "document A: %d distinct %d-shingles\n" (Iset.cardinal s) w;
  Printf.printf "document B: %d distinct %d-shingles\n" (Iset.cardinal t) w;
  Printf.printf "|A cap B| = %d, |A cup B| = %d\n" result.Apps.Similarity.intersection_size
    result.Apps.Similarity.union_size;
  Printf.printf "exact Jaccard similarity = %.4f\n" result.Apps.Similarity.jaccard;
  Printf.printf "exact Hamming distance   = %d\n" result.Apps.Similarity.hamming;
  Printf.printf "1-rarity = %.4f, 2-rarity = %.4f\n" result.Apps.Similarity.rarity1
    result.Apps.Similarity.rarity2;
  Format.printf "communication: %a@." Commsim.Cost.pp result.Apps.Similarity.cost
