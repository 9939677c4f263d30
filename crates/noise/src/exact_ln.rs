//! The `Reference` backend's lane logarithm: `ln(m·2⁻⁵²)` returned as the
//! platform libm rounds it, or flagged for the scalar fallback.
//!
//! Every `ln` input of the [`crate::NoiseBackend::Reference`] sampler is
//! exactly `x = m·2⁻⁵²` with `m ∈ [0, 2⁵²]` (see
//! [`crate::Laplace::fill`]). [`ln_scaled`] evaluates `ln x` as a
//! double-double `hi + lo` whose error is far below 0.001 ulp of `hi`, then
//! applies Ziv's rounding test: when `|lo|` sits at least [`ZIV_MARGIN`]
//! ulp inside half an ulp, `hi` is the correctly rounded `ln x`, and any
//! `ln` accurate to 0.52 ulp (glibc documents 0.519 for `log`) must return
//! that same double. Otherwise the lane is flagged and the caller patches
//! it with `f64::ln` itself.
//!
//! The kernel, for `x = 2ᵏ·z` with `z ∈ [0.6875, 1.375)` (the musl/glibc
//! branch-free reduction [`REDUCTION_OFF`]):
//!
//! * `z`'s top seven offset mantissa bits pick one of 128 subintervals,
//!   with a centre `c` and a [`LN_TABLE`] row `(1/c, −ln(1/c))`, the
//!   logarithm stored as a double-double. The two subintervals around 1
//!   use `1/c = 1`, so near `x = 1` nothing cancels.
//! * `r = z·(1/c) − 1` is carried exactly as `(p_hi − 1) + p_lo`: one FMA
//!   gives the product's low half, and `p_hi − 1` is exact by Sterbenz's
//!   lemma (`p_hi ∈ [½, 2]`). `|r| ≤ 2⁻⁷`.
//! * `log1p(r) = r − r²/2 + r³·q(r)` with `q` the Taylor series through
//!   `r⁵/8` (degree 8 overall), `r²` split exactly by an FMA, and the
//!   `p_lo` correction `p_lo·(1 − r + r²)` (the Taylor expansion of
//!   `log1p` about `p_hi − 1`).
//! * `k·ln2 + ln c + r − r²/2` is summed with exact fast two-sums (each
//!   left operand is at least as large as the right), the rounding errors
//!   and the small terms go into `lo`, and one last fast two-sum
//!   renormalizes.
//!
//! Error bound, against `ulp(hi)` (`|hi| ≥ 0.37` when `k ≠ 0`, so
//! `ulp ≥ 2⁻⁵⁴`; `|hi| ≥ 2⁻⁸` when `k = 0` and `1/c ≠ 1`; and when `k = 0`,
//! `1/c = 1` every term scales with `r`, so relative bounds apply): the
//! `ln 2` split (`52·2⁻⁸⁶`), the `k·LN2_LO` rounding (`2⁻⁷⁹`), the table
//! (`2⁻¹⁰⁴` relative), the `p_lo` expansion (`|p_lo·r³| ≤ 2⁻⁷⁴`), the
//! Taylor truncation (`|r|⁹/9 ≤ 2⁻⁶⁶`, or `2⁻⁶⁷` relative when `1/c = 1`),
//! and about ten roundings of `lo`-sized terms (`|lo| ≤ 2⁻²²`, so
//! `≤ 2⁻⁷¹`) together stay below 2⁻¹² ulp, a sixth of the 0.0015 ulp
//! that [`ZIV_MARGIN`] reserves on top of libm's 0.52.

use crate::backend::{LN2_HI, LN2_LO, REDUCTION_OFF};

/// `2⁵²`'s exponent pattern: `from_bits(EXP_2_52 + m) − 2⁵²` is the exact
/// integer-to-f64 conversion for `m ≤ 2⁵²`. It must be `+`, not `|`: at
/// `m = 2⁵²` the carry into the exponent is what yields `2⁵²` instead of 0.
const EXP_2_52: u64 = 0x4330_0000_0000_0000;

/// `2⁵²` as a float, and the bias of the reduced exponent's conversion
/// (`k + 64 ∈ [12, 64]` fits the low mantissa bits; see [`ln_scaled`]).
const TWO_52: f64 = 4_503_599_627_370_496.0;
const K_BIAS: f64 = TWO_52 + 64.0;

/// [`REDUCTION_OFF`] plus the 2⁻⁵² scale folded into the exponent field:
/// `bits(m as f64) − SCALED_OFF = bits(m·2⁻⁵²) − REDUCTION_OFF`, so the
/// multiply by 2⁻⁵² never has to happen.
const SCALED_OFF: u64 = REDUCTION_OFF + (52u64 << 52);

/// Subintervals per reduced binade, as a bit count: `z`'s top seven
/// offset mantissa bits index [`LN_TABLE`].
const TABLE_BITS: u32 = 7;

/// Ziv's margin, in ulps of `hi`: the fast result is accepted only when
/// `|lo| ≤ (½ − ZIV_MARGIN)·ulp(hi)`. It covers libm's documented 0.52 ulp
/// (0.02 past the midpoint) plus this kernel's proven error (below 2⁻¹²
/// ulp) with room to spare: 11/512 = 0.0215.
const ZIV_MARGIN: f64 = 11.0 / 512.0;

/// `(½ − ZIV_MARGIN)·2⁻⁵²`: times `2^exponent(hi)` it is the acceptance
/// bound on `|lo|`. `245/512·2⁻⁵²`, exact.
const ZIV_BOUND: f64 = (0.5 - ZIV_MARGIN) / TWO_52;

const EXP_MASK: u64 = 0x7FF0_0000_0000_0000;
const MANTISSA_MASK: u64 = (1 << 52) - 1;

/// One subinterval's reduction constants: `invc ≈ 1/c` for the
/// subinterval centre `c`, and `−ln(invc) = logc_hi + logc_lo` as a
/// double-double.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LnEntry {
    invc: f64,
    logc_hi: f64,
    logc_lo: f64,
}

const fn entry(invc: u64, logc_hi: u64, logc_lo: u64) -> LnEntry {
    LnEntry {
        invc: f64::from_bits(invc),
        logc_hi: f64::from_bits(logc_hi),
        logc_lo: f64::from_bits(logc_lo),
    }
}

/// `ln(m·2⁻⁵²)` for `m ≤ 2⁵²`: `(hi, exact)`. When `exact` is true, `hi`
/// is the correctly rounded logarithm, which is what `f64::ln` returns on
/// any libm accurate to 0.52 ulp. When it is false (`m = 0`, a
/// power-of-two `hi`, or a value too near a rounding midpoint), `hi` is
/// meaningless and the caller must use `f64::ln`.
///
/// Straight-line lane arithmetic: no branch, no libm call, one table row.
#[inline(always)]
pub(crate) fn ln_scaled(m: u64) -> (f64, bool) {
    let ybits = (f64::from_bits(EXP_2_52 + m) - TWO_52).to_bits();
    // tmp = bits(x) − REDUCTION_OFF for x = m·2⁻⁵².
    let tmp = ybits.wrapping_sub(SCALED_OFF);
    let row = LN_TABLE[((tmp >> (52 - TABLE_BITS)) & ((1 << TABLE_BITS) - 1)) as usize];
    // Low 12 bits of e are k in two's complement, k ∈ [−52, 0]; bias by +64
    // so the value is positive and converts through from_bits.
    let e = tmp >> 52;
    let k = f64::from_bits(EXP_2_52 | (e.wrapping_add(64) & 0xFFF)) - K_BIAS;
    // z = x·2⁻ᵏ ∈ [0.6875, 1.375).
    let z = f64::from_bits(ybits.wrapping_sub(e.wrapping_add(52) << 52));

    // r = p_hi − 1 + p_lo = z·invc − 1, exactly.
    let p_hi = z * row.invc;
    let p_lo = z.mul_add(row.invc, -p_hi);
    let r = p_hi - 1.0;
    let r2 = r * r;
    let r2_lo = r.mul_add(r, -r2);
    // q(r) = 1/3 − r/4 + r²/5 − r³/6 + r⁴/7 − r⁵/8, Estrin form.
    let q0 = r.mul_add(-1.0 / 4.0, 1.0 / 3.0);
    let q1 = r.mul_add(-1.0 / 6.0, 1.0 / 5.0);
    let q2 = r.mul_add(-1.0 / 8.0, 1.0 / 7.0);
    let q = r2.mul_add(r2.mul_add(q2, q1), q0);

    let (s1, e1) = fast_two_sum(k * LN2_HI, row.logc_hi);
    let (s2, e2) = fast_two_sum(s1, r);
    let (s3, e3) = fast_two_sum(s2, -0.5 * r2);
    let small = k.mul_add(LN2_LO, row.logc_lo) + p_lo.mul_add(r2 - r, p_lo);
    let lo = (r * r2).mul_add(q, r2_lo.mul_add(-0.5, small)) + ((e1 + e2) + e3);
    let (hi, lo) = fast_two_sum(s3, lo);

    let hbits = hi.to_bits();
    let bound = f64::from_bits(hbits & EXP_MASK) * ZIV_BOUND;
    let exact = (lo.abs() <= bound) & (hbits & MANTISSA_MASK != 0) & (m != 0);
    (hi, exact)
}

/// Dekker's fast two-sum: `s + e = a + b` exactly, provided `a = 0` or
/// `|a| ≥ |b|`.
#[inline(always)]
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    (s, b - (s - a))
}

/// The reduction table, row `i` for `z ∈ [from_bits(OFF + i·2⁴⁵),
/// from_bits(OFF + (i+1)·2⁴⁵))`: `invc = 1/c` rounded, `c` the subinterval
/// centre (rows 79 and 80, the subintervals on either side of 1, use
/// `invc = 1`), and `−ln(invc)` as a double-double. Derived in-crate, with
/// no libm, by a double-double `atanh` series; the test
/// `ln_table_matches_its_derivation` regenerates it and prints these
/// literals on any mismatch.
#[rustfmt::skip]
static LN_TABLE: [LnEntry; 1 << TABLE_BITS] = [
    entry(0x3FF7_34F0_C541_FE8D, 0xBFD7_CC7F_7DB4_6A0E, 0xBC7E_3C7F_DC32_3C2B),
    entry(0x3FF7_1378_6D9C_7C09, 0xBFD7_6FEE_CB94_7176, 0x3C73_98D9_EB4E_A363),
    entry(0x3FF6_F260_16F2_6017, 0xBFD7_13E3_3A46_A17C, 0x3C6F_6CF4_0B5C_71A8),
    entry(0x3FF6_D1A6_2681_C861, 0xBFD6_B85B_4CFF_A3FD, 0x3C61_AF2C_8DAF_CB08),
    entry(0x3FF6_B149_0AA3_1A3D, 0xBFD6_5D55_8D4C_E00B, 0x3C74_E05A_4748_4809),
    entry(0x3FF6_9147_3A88_D0C0, 0xBFD6_02D0_8AF0_91EC, 0xBC7A_45DB_7CFD_9230),
    entry(0x3FF6_719F_3601_671A, 0xBFD5_A8CA_DBBE_DFA1, 0xBC36_4F50_8130_7F20),
    entry(0x3FF6_524F_853B_4AA3, 0xBFD5_4F43_1B7B_E1A8, 0x3C50_B3F6_EF6A_E44C),
    entry(0x3FF6_3356_B88A_C0DE, 0xBFD4_F637_EBBA_9810, 0x3C76_8CB3_124B_9244),
    entry(0x3FF6_14B3_6831_AE94, 0xBFD4_9DA7_F3BC_C420, 0x3C6D_964A_168C_CACA),
    entry(0x3FF5_F664_3429_2DFC, 0xBFD4_4591_E053_9F49, 0xBC4A_76D6_DC27_82E0),
    entry(0x3FF5_D867_C3EC_E2A5, 0xBFD3_EDF4_63C1_683E, 0x3C6C_852F_E587_DEF8),
    entry(0x3FF5_BABC_C647_FA91, 0xBFD3_96CE_359B_BF53, 0x3C45_C566_3663_D160),
    entry(0x3FF5_9D61_F123_CCAA, 0xBFD3_401E_12AE_CBA0, 0xBC6F_9552_3ADC_5CA0),
    entry(0x3FF5_8056_0158_0560, 0xBFD2_E9E2_BCE1_2286, 0x3C6F_3ED7_2E23_E134),
    entry(0x3FF5_6397_BA7C_52E2, 0xBFD2_941A_FB18_6B7C, 0xBC46_A467_8EBA_A300),
    entry(0x3FF5_4725_E6BB_82FE, 0xBFD2_3EC5_991E_BA49, 0xBC27_6EBA_35BB_F0E0),
    entry(0x3FF5_2AFF_56A8_054B, 0xBFD1_E9E1_6788_99F5, 0xBC56_4B0D_D268_7938),
    entry(0x3FF5_0F22_E111_C4C5, 0xBFD1_956D_3B9B_C2F9, 0xBC50_E75A_3542_8570),
    entry(0x3FF4_F38F_62DD_4C9B, 0xBFD1_4167_EF36_7784, 0xBC7E_F824_DAAF_53E9),
    entry(0x3FF4_D843_BEDC_2C4C, 0xBFD0_EDD0_60B7_8082, 0xBC62_D4B6_10D7_D4F6),
    entry(0x3FF4_BD3E_DDA6_8FE1, 0xBFD0_9AA5_72E6_C6D4, 0xBC7F_9E17_3434_26AA),
    entry(0x3FF4_A27F_AD76_014A, 0xBFD0_47E6_0CDE_83B7, 0xBC70_8869_CBF9_E344),
    entry(0x3FF4_8805_2201_4880, 0xBFCF_EB22_33EA_07CB, 0xBC28_DE00_938B_4C30),
    entry(0x3FF4_6DCE_3459_6066, 0xBFCF_474B_134D_F228, 0x3C39_F1DF_7B5D_AAB0),
    entry(0x3FF4_53D9_E2C7_76CA, 0xBFCE_A444_9F04_AAF5, 0x3C6F_3391_9AB9_4074),
    entry(0x3FF4_3A27_30AB_EE4D, 0xBFCE_020C_C623_5AB5, 0x3C6F_0ADB_9142_3F17),
    entry(0x3FF4_20B5_265E_5951, 0xBFCD_60A1_7F90_3514, 0x3C65_0DF8_41A7_1B7A),
    entry(0x3FF4_0782_D10E_6566, 0xBFCC_C000_C9DB_3C52, 0xBC56_7A2A_8500_729C),
    entry(0x3FF3_EE8F_42A5_AF07, 0xBFCC_2028_AB17_F9B5, 0xBC6C_11AA_3853_A5F0),
    entry(0x3FF3_D5D9_91AA_75C6, 0xBFCB_8117_30B8_23D4, 0x3C5D_7C46_3289_83C6),
    entry(0x3FF3_BD60_D923_2955, 0xBFCA_E2CA_6F67_2BD8, 0x3C6A_4A35_6155_F77C),
    entry(0x3FF3_A524_387A_C822, 0xBFCA_4540_82E6_AB03, 0x3C5E_0DF8_23A3_CB3C),
    entry(0x3FF3_8D22_D366_088E, 0xBFC9_A877_8DEB_AA3A, 0xBC52_8FBF_B0E3_F0FC),
    entry(0x3FF3_755B_D1C9_45EE, 0xBFC9_0C6D_B9FC_BCDB, 0x3C53_5771_8D7C_A4CC),
    entry(0x3FF3_5DCE_5F9F_2AF8, 0xBFC8_7121_3750_E994, 0x3C6A_97A0_CA11_5D5E),
    entry(0x3FF3_4679_ACE0_1346, 0xBFC7_D690_3CAF_5ACD, 0x3C60_B17C_301D_6E14),
    entry(0x3FF3_2F5C_ED6A_1DFA, 0xBFC7_3CB9_074F_D14D, 0x3C67_21A0_00B4_CF00),
    entry(0x3FF3_1877_58E9_EBB6, 0xBFC6_A399_DABB_D383, 0xBC67_6332_BD4B_3420),
    entry(0x3FF3_01C8_2AC4_0260, 0xBFC6_0B31_00B0_9474, 0xBC65_26CE_E0FD_7F4A),
    entry(0x3FF2_EB4E_A1FE_D14B, 0xBFC5_737C_C901_8CDD, 0x3C60_0B28_EF01_3C72),
    entry(0x3FF2_D50A_012D_50A0, 0xBFC4_DC7B_897B_C1C7, 0xBC4B_60AE_1FF0_E82C),
    entry(0x3FF2_BEF9_8E5A_3711, 0xBFC4_462B_9DC9_B3DC, 0x3C48_5388_D830_C708),
    entry(0x3FF2_A91C_92F3_C105, 0xBFC3_B08B_6757_F2A7, 0xBC65_E1AD_9BE0_A4CC),
    entry(0x3FF2_9372_5BB8_04A5, 0xBFC3_1B99_4D3A_4F86, 0x3C61_238B_5EFE_0664),
    entry(0x3FF2_7DFA_38A1_CE4D, 0xBFC2_8753_BC11_ABA2, 0x3C67_394D_9FA3_3314),
    entry(0x3FF2_68B3_7CD6_0127, 0xBFC1_F3B9_25F2_5D44, 0xBC60_8B27_BE4E_6B15),
    entry(0x3FF2_539D_7E91_77B2, 0xBFC1_60C8_024B_27B0, 0x3C43_55BF_D870_AFE8),
    entry(0x3FF2_3EB7_9717_605B, 0xBFC0_CE7E_CDCC_C28B, 0xBC41_B57F_EA88_DA98),
    entry(0x3FF2_2A01_22A0_122A, 0xBFC0_3CDC_0A51_EC0D, 0xBC61_9E2D_3F8B_7D10),
    entry(0x3FF2_1579_8048_55E6, 0xBFBF_57BC_7D90_05DB, 0x3C5D_3615_74FB_24E2),
    entry(0x3FF2_0120_1201_2012, 0xBFBE_3707_EE30_487B, 0xBC49_399D_9AAF_3B30),
    entry(0x3FF1_ECF4_3C7F_B84C, 0xBFBD_1797_8821_9362, 0x3C5B_1284_1044_A96C),
    entry(0x3FF1_D8F5_672E_4ABD, 0xBFBB_F968_769F_CA18, 0x3C50_6E4F_B7AF_9C6A),
    entry(0x3FF1_C522_FC1C_E059, 0xBFBA_DC77_EE5A_EA8E, 0xBC5D_7D8F_39BE_E657),
    entry(0x3FF1_B17C_67F2_BAE3, 0xBFB9_C0C3_2D4D_254D, 0x3C56_27A0_E199_F569),
    entry(0x3FF1_9E01_19E0_119E, 0xBFB8_A647_7A91_DC29, 0x3C53_D419_0A48_2420),
    entry(0x3FF1_8AB0_8390_2BDB, 0xBFB7_8D02_263D_82D7, 0xBC5C_BCA5_B4FD_B87E),
    entry(0x3FF1_778A_191B_D684, 0xBFB6_74F0_8936_5A78, 0xBC4C_A64E_9980_E048),
    entry(0x3FF1_648D_50FC_3201, 0xBFB5_5E10_050E_0382, 0xBC59_A062_9E39_73E4),
    entry(0x3FF1_51B9_A3FD_D5C9, 0xBFB4_485E_03DB_DFB0, 0xBC53_BA34_9AAD_BC6C),
    entry(0x3FF1_3F0E_8D34_4724, 0xBFB3_33D7_F818_3F4A, 0x3C4A_DAA0_6E21_1E9E),
    entry(0x3FF1_2C8B_89ED_C0AC, 0xBFB2_207B_5C78_54A1, 0xBC5B_3F04_31EF_B154),
    entry(0x3FF1_1A30_19A7_4826, 0xBFB1_0E45_B3CA_E829, 0xBC59_B5ED_72E6_D975),
    entry(0x3FF1_07FB_BE01_1080, 0xBFAF_FA69_11AB_9309, 0x3C4C_D9F1_F95C_2EF0),
    entry(0x3FF0_F5ED_FAB3_25A2, 0xBFAD_DA8A_DC67_EE59, 0x3C43_1936_790B_B3B2),
    entry(0x3FF0_E406_5582_6011, 0xBFAB_BCEB_FC68_F424, 0x3C4C_D186_2F85_4848),
    entry(0x3FF0_D244_5635_9E3A, 0xBFA9_A187_B573_DE81, 0xBBFB_13B2_6F29_8A80),
    entry(0x3FF0_C0A7_868B_4171, 0xBFA7_8859_5A35_77C8, 0xBC12_F7C4_C5B3_C8B8),
    entry(0x3FF0_AF2F_722E_ECB5, 0xBFA5_715C_4C03_CEE1, 0xBC45_101D_C4EB_F91E),
    entry(0x3FF0_9DDB_A6AF_8360, 0xBFA3_5C8B_FAA1_3069, 0x3C05_0830_A655_43A0),
    entry(0x3FF0_8CAB_B375_65E2, 0xBFA1_49E3_E400_5A8D, 0x3C3A_9A41_68FC_EBEC),
    entry(0x3FF0_7B9F_29B8_EAE2, 0xBF9E_72BF_2813_CE6A, 0x3C38_A4BB_A6A3_54FA),
    entry(0x3FF0_6AB5_9C79_12FB, 0xBF9A_55F5_48C5_C427, 0xBC2F_60D2_FC36_A0D8),
    entry(0x3FF0_59EE_A072_7586, 0xBF96_3D61_7869_0BBE, 0x3C31_8ED4_D357_C9DC),
    entry(0x3FF0_4949_CC16_64C5, 0xBF92_28FB_1FEA_2E0A, 0xBC23_2849_91FE_3D58),
    entry(0x3FF0_38C6_B782_47FC, 0xBF8C_3173_84C7_5F0D, 0xBC28_0620_8C04_C220),
    entry(0x3FF0_2864_FC77_29E9, 0xBF84_1929_F968_330C, 0xBC23_AAE8_09B4_3DD0),
    entry(0x3FF0_1824_3651_7A37, 0xBF78_1212_1458_6B02, 0x3C1C_7D68_C0D9_10F2),
    entry(0x3FF0_0000_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000),
    entry(0x3FF0_0000_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000),
    entry(0x3FEF_A11C_AA01_FA12, 0x3F87_DC47_5F81_0A69, 0x3C27_4944_BC16_1073),
    entry(0x3FEF_6310_ACA0_DBB5, 0x3F93_CEA4_4346_A584, 0xBC28_65AD_4815_9D04),
    entry(0x3FEF_25F6_4423_0AB5, 0x3F9B_9FC0_27AF_919A, 0xBC39_0AE6_9229_DC88),
    entry(0x3FEE_E9C7_F845_8E02, 0x3FA1_B0D9_8923_D97F, 0xBC47_4D74_44DD_6240),
    entry(0x3FEE_AE80_7ABA_01EB, 0x3FA5_8A5B_AFC8_E4D3, 0xBBFC_AB85_69C5_6E40),
    entry(0x3FEE_741A_A597_50E4, 0x3FA9_5C83_0EC8_E3F2, 0x3C3E_B41D_00A4_17EC),
    entry(0x3FEE_3A91_79DC_1A73, 0x3FAD_276B_8ADB_0B56, 0x3C40_78F1_4C95_FF50),
    entry(0x3FEE_01E0_1E01_E01E, 0x3FB0_7598_3598_E471, 0x3C50_06D2_999E_22DC),
    entry(0x3FED_CA01_DCA0_1DCA, 0x3FB2_53F6_2F0A_1417, 0x3C21_F6D3_4E01_D980),
    entry(0x3FED_92F2_231E_7F8A, 0x3FB4_2EDC_BEA6_46EE, 0xBC55_1158_3653_349A),
    entry(0x3FED_5CAC_8075_72B2, 0x3FB6_0658_A937_50C4, 0xBC4F_108B_1D84_36D0),
    entry(0x3FED_272C_A3FC_5B1A, 0x3FB7_DA76_6D7B_12D0, 0x3C4A_2240_644D_7DA2),
    entry(0x3FEC_F26E_5C44_BFC6, 0x3FB9_AB42_4620_33AE, 0xBC4A_099E_1C18_4E8C),
    entry(0x3FEC_BE6D_9601_CBE7, 0x3FBB_78C8_2BB0_EDA0, 0xBC53_EF0E_61F9_B03C),
    entry(0x3FEC_8B26_5AFB_8A42, 0x3FBD_4313_D66C_B35D, 0x3C5B_90DD_951D_90FA),
    entry(0x3FEC_5894_D10D_4986, 0x3FBF_0A30_C011_62A4, 0x3C48_BE64_B8B7_7598),
    entry(0x3FEC_26B5_392E_A01C, 0x3FC0_6715_12CA_596F, 0xBC52_F39B_8147_9B66),
    entry(0x3FEB_F583_EE86_8D8B, 0x3FC1_4785_8467_42AC, 0x3C39_4409_F1D3_F840),
    entry(0x3FEB_C4FD_6588_3E7B, 0x3FC2_266F_190A_5ACD, 0xBC6D_AB84_0E7F_6178),
    entry(0x3FEB_951E_2B18_FF23, 0x3FC3_03D7_18E4_7FD5, 0xBC6B_5AE7_1F65_8248),
    entry(0x3FEB_65E2_E3BE_EE05, 0x3FC3_DFC2_B0EC_C62A, 0x3C6B_A62B_8C13_F7F4),
    entry(0x3FEB_3748_4AD8_06CE, 0x3FC4_BA36_F39A_55E5, 0xBC6F_767E_433C_98AA),
    entry(0x3FEB_094B_31D9_22A4, 0x3FC5_9338_D998_2085, 0x3C68_D16E_AABA_9418),
    entry(0x3FEA_DBE8_7F94_905E, 0x3FC6_6ACD_4272_AD51, 0xBC49_201C_9C3D_5164),
    entry(0x3FEA_AF1D_2F87_EBFD, 0x3FC7_40F8_F540_37A3, 0x3C56_D9BF_9D57_B327),
    entry(0x3FEA_82E6_5130_E159, 0x3FC8_15C0_A143_57E9, 0x3C51_41B7_F8C5_FA9C),
    entry(0x3FEA_5741_0768_8A4A, 0x3FC8_E928_DE88_6D41, 0x3C42_589E_B96A_6240),
    entry(0x3FEA_2C2A_87C5_1CA0, 0x3FC9_BB36_2E7D_FB85, 0xBC55_1439_C1FF_83E7),
    entry(0x3FEA_01A0_1A01_A01A, 0x3FCA_8BEC_FC88_2F19, 0xBC5A_8C37_918C_39EA),
    entry(0x3FE9_D79F_176B_682D, 0x3FCB_5B51_9E8F_B5A6, 0xBC6D_5D80_23E6_1E60),
    entry(0x3FE9_AE24_EA55_10DA, 0x3FCC_2968_558C_18C2, 0x3C36_108E_3AE0_24B0),
    entry(0x3FE9_852F_0D8E_C0FF, 0x3FCC_F635_4E09_C5DD, 0x3C63_39A0_7D55_B697),
    entry(0x3FE9_5CBB_0BE3_77AE, 0x3FCD_C1BC_A0AB_EC7B, 0x3C5C_698A_3331_6DF8),
    entry(0x3FE9_34C6_7F9B_2CE6, 0x3FCE_8C02_52AA_5A60, 0xBC3D_C074_737F_9140),
    entry(0x3FE9_0D4F_1201_90D5, 0x3FCF_550A_564B_7B37, 0xBC61_3A09_202F_E73C),
    entry(0x3FE8_E652_7AF1_373F, 0x3FD0_0E6C_45AD_501D, 0xBC63_B956_8FF6_FEAD),
    entry(0x3FE8_BFCE_8062_FF3A, 0x3FD0_71B8_5FCD_590D, 0x3C60_8B83_FCBD_EF40),
    entry(0x3FE8_99C0_F601_899C, 0x3FD0_D46B_579A_B74B, 0x3C72_1F64_0E1E_5ECA),
    entry(0x3FE8_7427_BCC0_92B9, 0x3FD1_3687_0293_A8B0, 0x3C68_6CC5_31DB_A494),
    entry(0x3FE8_4F00_C278_0614, 0x3FD1_980D_2DD4_236F, 0xBC70_2C2E_4F1B_2EB9),
    entry(0x3FE8_2A4A_0182_A4A0, 0x3FD1_F8FF_9E48_A2F3, 0xBC69_3FBF_3418_960D),
    entry(0x3FE8_0601_8060_1806, 0x3FD2_5960_10DF_763A, 0xBC49_EED8_AE0E_BD40),
    entry(0x3FE7_E225_515A_4F1D, 0x3FD2_B930_3AB8_9D25, 0xBC58_5AD7_F614_AB50),
    entry(0x3FE7_BEB3_922E_017C, 0x3FD3_1871_C954_4185, 0xBC6E_A359_8981_3670),
    entry(0x3FE7_9BAA_6BB6_398B, 0x3FD3_7726_62BF_D85C, 0x3C60_2A75_89FB_A087),
    entry(0x3FE7_7908_119A_C60D, 0x3FD3_D54F_A5C1_F710, 0x3C55_3668_E578_D9C8),
    entry(0x3FE7_56CA_C201_756D, 0x3FD4_32EF_2A04_E813, 0xBC68_3262_E2B5_9202),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A double-double `hi + lo`, `|lo| ≤ ulp(hi)/2`.
    #[derive(Debug, Clone, Copy)]
    struct Dd(f64, f64);

    fn two_sum(a: f64, b: f64) -> Dd {
        let s = a + b;
        let bb = s - a;
        Dd(s, (a - (s - bb)) + (b - bb))
    }

    fn norm(hi: f64, lo: f64) -> Dd {
        let (s, e) = fast_two_sum(hi, lo);
        Dd(s, e)
    }

    fn add(x: Dd, y: Dd) -> Dd {
        let s = two_sum(x.0, y.0);
        let t = two_sum(x.1, y.1);
        let u = norm(s.0, s.1 + t.0);
        norm(u.0, u.1 + t.1)
    }

    fn mul(x: Dd, y: Dd) -> Dd {
        let p = x.0 * y.0;
        let e = x.0.mul_add(y.0, -p);
        norm(p, e + (x.0 * y.1 + x.1 * y.0))
    }

    fn div(x: Dd, y: Dd) -> Dd {
        let q1 = x.0 / y.0;
        let r = add(x, mul(Dd(-q1, 0.0), y));
        let q2 = r.0 / y.0;
        let r = add(r, mul(Dd(-q2, 0.0), y));
        let q3 = r.0 / y.0;
        add(norm(q1, q2), Dd(q3, 0.0))
    }

    /// `ln(v)` for `v ∈ [½, 2]` as a double-double, by
    /// `2·atanh((v − 1)/(v + 1))`, its series in Horner form.
    fn ln_dd(v: f64) -> Dd {
        let s = div(Dd(v - 1.0, 0.0), two_sum(v, 1.0));
        let s2 = mul(s, s);
        let mut acc = Dd(0.0, 0.0);
        for j in (0..40).rev() {
            acc = add(div(Dd(1.0, 0.0), Dd((2 * j + 1) as f64, 0.0)), mul(acc, s2));
        }
        let l = mul(acc, s);
        Dd(2.0 * l.0, 2.0 * l.1)
    }

    fn derive_table() -> Vec<LnEntry> {
        (0..1u64 << TABLE_BITS)
            .map(|i| {
                let lo = f64::from_bits(REDUCTION_OFF + (i << (52 - TABLE_BITS)));
                let hi = f64::from_bits(REDUCTION_OFF + ((i + 1) << (52 - TABLE_BITS)));
                if lo == 1.0 || hi == 1.0 {
                    return entry(1.0f64.to_bits(), 0, 0);
                }
                let invc = 1.0 / ((lo + hi) * 0.5);
                let l = ln_dd(invc);
                LnEntry {
                    invc,
                    logc_hi: -l.0,
                    logc_lo: -l.1,
                }
            })
            .collect()
    }

    #[test]
    fn ln_table_matches_its_derivation() {
        let derived = derive_table();
        if derived[..] != LN_TABLE[..] {
            let mut src = String::new();
            for e in &derived {
                src.push_str(&format!(
                    "    entry({}, {}, {}),\n",
                    hex(e.invc),
                    hex(e.logc_hi),
                    hex(e.logc_lo)
                ));
            }
            panic!("LN_TABLE differs from its derivation; regenerated rows:\n{src}");
        }
    }

    fn hex(v: f64) -> String {
        let b = v.to_bits();
        format!(
            "0x{:04X}_{:04X}_{:04X}_{:04X}",
            b >> 48,
            (b >> 32) & 0xFFFF,
            (b >> 16) & 0xFFFF,
            b & 0xFFFF
        )
    }

    /// Checks one input against `f64::ln`: an accepted lane must carry the
    /// platform's exact bits. Returns whether the lane fell back.
    fn check(m: u64) -> bool {
        let (hi, exact) = ln_scaled(m);
        if exact {
            let want = (m as f64 / TWO_52).ln();
            assert_eq!(
                hi.to_bits(),
                want.to_bits(),
                "m = {m:#x}: kernel {hi:e} vs f64::ln {want:e} — the platform ln \
                 breaks the 0.52-ulp assumption or the kernel regressed"
            );
        }
        !exact
    }

    /// Checks `n` random `m` over the upper binades `m ∈ [2³², 2⁵²)`,
    /// each binade equally likely; returns the fallback count.
    fn check_random(seed: u64, n: u64) -> u64 {
        let mut rng = crate::rng_from_seed(seed);
        (0..n)
            .map(|_| {
                let w = rng.next_u64();
                let binade = 32 + (w >> 59) % 20;
                u64::from(check((1 << binade) | (w & ((1 << binade) - 1))))
            })
            .sum()
    }

    #[test]
    fn edge_inputs_fall_back_or_match() {
        // m = 0 is ln 0 = −∞; m = 2⁵² is x = 1, whose ln is +0.0 (a
        // zero hi has no mantissa bits, so it takes the libm path too).
        assert!(!ln_scaled(0).1);
        assert!(!ln_scaled(1 << 52).1);
        for m in [1, 2, 3, (1 << 52) - 1, (1 << 51) + 1, 0xB_0000_0000_0000] {
            check(m);
        }
        // Every reduction boundary and the neighbours of each power of two.
        for i in 0..=52u64 {
            for j in 0..128u64 {
                let base = (1u64 << i) + (j << i.saturating_sub(7));
                for m in base.saturating_sub(2)..=base + 2 {
                    if m <= 1 << 52 {
                        check(m);
                    }
                }
            }
        }
    }

    #[test]
    fn random_inputs_match_platform_ln() {
        let fallbacks = check_random(1, 1 << 18);
        let rate = fallbacks as f64 / (1 << 18) as f64;
        assert!(rate < 0.06, "fallback rate {rate}");
    }

    /// Exhaustive over every `m < 2³²` — each binade below 2⁻²⁰ — split
    /// across the available cores. Release mode only in practice (CI runs
    /// `cargo test --release -p hc-noise -- --ignored reference_ln_`).
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, minutes in release mode"]
    fn reference_ln_exhaustive_below_two_pow_minus_20() {
        // m = 0 is ln 0 = −∞ (a +∞ sample): always the libm path.
        assert!(!ln_scaled(0).1);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let total = 1u64 << 32;
        let fallbacks: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let lo = total * t / threads;
                        let hi = total * (t + 1) / threads;
                        (lo..hi).map(|m| u64::from(check(m))).sum::<u64>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checker thread"))
                .sum()
        });
        println!(
            "reference_ln exhaustive m < 2^32: {fallbacks} fallbacks ({:.3}%)",
            100.0 * fallbacks as f64 / total as f64
        );
    }

    /// 2³⁰ (> 10⁹) random `m` across the upper binades `[2³², 2⁵²)`.
    #[test]
    #[ignore = "10^9 random inputs, about a minute in release mode"]
    fn reference_ln_random_upper_binades() {
        // m = 2⁵² is x = 1, ln 1 = +0.0 (a +0.0 sample): always the libm
        // path, since a zero `hi` has no mantissa bits.
        assert!(!ln_scaled(1 << 52).1);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let total = 1u64 << 30;
        let fallbacks: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || check_random(0x5EED + t, total / threads)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("checker thread"))
                .sum()
        });
        println!(
            "reference_ln random upper binades: {fallbacks} fallbacks of {total} ({:.3}%)",
            100.0 * fallbacks as f64 / total as f64
        );
    }
}
