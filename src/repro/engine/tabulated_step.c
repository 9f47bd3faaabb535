/*
 * One tabulated system cycle of the batched engine, for every die.
 *
 * This is the C twin of CycleKernel.step (repro/engine/kernels.py) under
 * device_model="tabulated": FIFO push, rate decision (or schedule),
 * DC-DC preset / sense / trim, eight semi-implicit Euler buck substeps
 * with interpolated current_draw, operation count and FIFO drain,
 * energy accounting, and the signature vote / LUT-correction update.
 *
 * Bit-identity contract: every die performs the same IEEE-754 double
 * operations, in the same order and with the same operands, as the
 * numpy kernel performs on that die's array element.  The numpy kernel
 * is elementwise across dies, so running die by die instead of stage by
 * stage changes nothing.  What keeps the arithmetic identical:
 *
 *   - built with -O2 -ffp-contract=off -fno-fast-math (no fused
 *     multiply-add, no reassociation; x86-64 SSE2 doubles);
 *   - np.rint is nearbyint (round half to even);
 *   - np.maximum / np.minimum keep numpy's NaN propagation and its
 *     signed-zero choice (np_max / np_min below);
 *   - float -> int conversions truncate, like numpy's unsafe casts;
 *   - int64 operands meeting a double are converted to double first.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef struct {
    /* Geometry. */
    int64_t n;
    int64_t history_window;
    int64_t vote_window;
    int64_t points;
    int64_t code_break_count;
    /* Mode flags. */
    int64_t voltage_sense;
    int64_t compensation;
    int64_t has_min_cycle_time;
    /* Integer constants. */
    int64_t fifo_depth;
    int64_t levels;
    int64_t max_code;
    int64_t bins;
    int64_t lut_depth;
    int64_t code_lower_bound;
    int64_t code_upper_bound;
    int64_t duty_update_interval;
    int64_t max_correction;
    int64_t tdc_base_code;
    /* Float constants. */
    double period;
    double substep;
    double r_on;
    double battery;
    double inductance;
    double capacitance;
    double full_scale;
    double scf_factor;
    double min_cycle_time;
    double inv_dv;
    double signature_ceiling;
    double deadband;
    double tdc_minimum_supply;
    /* BatchState arrays (row-major, die-major). */
    int64_t *queue_length;
    int64_t *history;
    int64_t *history_sum;
    int64_t *duty_value;
    int64_t *cycles_since_duty_update;
    int64_t *last_desired;
    uint8_t *has_last_desired;
    double *inductor_current;
    double *output_voltage;
    double *work_accumulator;
    int64_t *lut_correction;
    int64_t *votes;
    int64_t *vote_count;
    int64_t *votes_pos;
    double *energy_total;
    int64_t *operations_total;
    int64_t *drops_total;
    int64_t *accepted_total;
    int64_t *peak_queue;
    int64_t *decision_up_total;
    int64_t *decision_hold_total;
    int64_t *decision_down_total;
    /* Response tables, (n, points) each, and the TDC staircase. */
    const double *current_draw;
    const double *cycle_time;
    const double *leakage_current;
    const double *dynamic_energy;
    const double *code_breaks;
    const double *positive_break;
    const double *saturation_break;
    const int64_t *lut_entries;
    /* ScratchBuffers outputs (the telemetry row). */
    int64_t *out_desired;
    int64_t *out_operations;
    int64_t *out_dropped;
    double *out_energy;
    int8_t *out_decision;
    int64_t *desired;
    double *v_switch;
} tabulated_step_ctx;

/* Lets the loader check its ctypes mirror of the struct. */
int64_t tabulated_step_ctx_size(void) { return sizeof(tabulated_step_ctx); }

static inline double np_max(double a, double b)
{
    if (a != a) return a;
    if (b != b) return b;
    return a > b ? a : b;
}

static inline double np_min(double a, double b)
{
    if (a != a) return a;
    if (b != b) return b;
    return a < b ? a : b;
}

static inline int64_t imax(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t imin(int64_t a, int64_t b) { return a < b ? a : b; }

/* ResponseTables._lookup for one die; returns 0, or -1 on a NaN query. */
static inline int lookup(const tabulated_step_ctx *c, const double *table,
                         int64_t die, double supply, double *out)
{
    double pos = supply * c->inv_dv;
    pos = np_max(pos, 0.0);
    pos = np_min(pos, (double)(c->points - 1));
    if (pos != pos) return -1;
    int64_t idx = imin((int64_t)pos, c->points - 2);
    double frac = pos - (double)idx;
    const double *row = table + die * c->points;
    double left = row[idx];
    double right = row[idx + 1];
    right = right - left;
    right = right * frac;
    *out = left + right;
    return 0;
}

/* CycleKernel._sense_codes under voltage sensing. */
static inline int64_t voltage_code(const tabulated_step_ctx *c, double vout)
{
    double raw = vout * (double)c->levels;
    raw = raw / c->full_scale;
    raw = nearbyint(raw);
    return imin(imax((int64_t)raw, 0), c->max_code);
}

/* TdcCodeTables.lookup for one die: the code, and whether it is reliable. */
static inline int64_t tdc_code(const tabulated_step_ctx *c, int64_t die,
                               double vout, int *reliable)
{
    const double *breaks = c->code_breaks + die * c->code_break_count;
    int64_t code = 0;
    for (int64_t j = 0; j < c->code_break_count; ++j)
        code += vout >= breaks[j];
    code += c->tdc_base_code;
    *reliable = vout >= c->tdc_minimum_supply
        && vout >= c->positive_break[die]
        && vout < c->saturation_break[die];
    if (vout < c->tdc_minimum_supply) code = c->tdc_base_code;
    return code;
}

/*
 * Advance every die by one cycle.  ``arriving`` / ``scheduled`` are
 * int64 vectors read with an element stride (0 broadcasts one value);
 * ``scheduled`` NULL selects the rate controller.  ``history_pos`` and
 * ``history_filled`` are the shared ring scalars *before* the cycle (the
 * caller advances them).  Returns how many dies applied a LUT
 * correction, or -1 when a table lookup met a NaN supply.
 */
int64_t tabulated_step(const tabulated_step_ctx *c,
                       const int64_t *arriving, int64_t arriving_stride,
                       const int64_t *scheduled, int64_t scheduled_stride,
                       int64_t history_pos, int64_t history_filled)
{
    const int64_t W = c->history_window;
    const int64_t K = c->vote_window;
    const int history_full = history_filled >= W;
    const int64_t filled = history_full ? history_filled : history_filled + 1;
    int64_t applied = 0;

    for (int64_t i = 0; i < c->n; ++i) {
        /* 1. Input samples into the FIFO. */
        int64_t arrive = arriving[i * arriving_stride];
        int64_t queue = c->queue_length[i];
        int64_t accepted = imin(arrive, c->fifo_depth - queue);
        int64_t dropped = arrive - accepted;
        queue += accepted;
        c->accepted_total[i] += accepted;
        c->drops_total[i] += dropped;

        /* 2. Desired supply word. */
        int64_t record, desired;
        if (scheduled == NULL) {
            int64_t *slot = c->history + i * W + history_pos;
            if (history_full) c->history_sum[i] -= *slot;
            c->history_sum[i] += queue;
            *slot = queue;
            double averaged = (double)c->history_sum[i] / (double)filled;
            averaged = nearbyint(averaged);
            int64_t clamped = imin((int64_t)averaged, c->lut_depth);
            int64_t product = clamped * c->bins;
            double quotient = (double)product / (double)(c->lut_depth + 1);
            int64_t index = imin((int64_t)quotient, c->bins - 1);
            record = c->lut_entries[index] + c->lut_correction[i];
            record = imin(imax(record, 0), c->max_code);
            desired = record;
        } else {
            record = scheduled[i * scheduled_stride] + c->lut_correction[i];
            record = imin(record, c->max_code);
            desired = imin(imax(record, 0), c->max_code);
        }
        c->out_desired[i] = record;
        c->desired[i] = desired;

        /* 3. DC-DC preset. */
        int64_t delta = desired - c->last_desired[i];
        if (delta < 0) delta = -delta;
        if (delta > 2 || !c->has_last_desired[i]) {
            double voltage = (double)desired * c->full_scale;
            voltage = voltage / (double)c->levels;
            voltage = voltage / c->battery;
            voltage = voltage * (double)c->levels;
            voltage = nearbyint(voltage);
            int64_t duty = imin(imax((int64_t)voltage, 0), c->max_code);
            duty = imax(duty, c->code_lower_bound);
            duty = imin(duty, c->code_upper_bound);
            c->duty_value[i] = duty;
            c->cycles_since_duty_update[i] = 0;
        }
        c->last_desired[i] = desired;
        c->has_last_desired[i] = 1;

        /* Sense, compare, trim. */
        double vout = c->output_voltage[i];
        int64_t measured;
        if (c->voltage_sense) {
            measured = voltage_code(c, vout);
        } else {
            int unused;
            measured = tdc_code(c, i, vout, &unused);
        }
        int64_t error = desired - measured;
        int64_t decision = (error > 0) - (error < 0);
        c->out_decision[i] = (int8_t)decision;
        int64_t since = c->cycles_since_duty_update[i] + 1;
        int64_t trimmed = c->duty_value[i] + decision;
        trimmed = imax(trimmed, c->code_lower_bound);
        trimmed = imin(trimmed, c->code_upper_bound);
        if (since >= c->duty_update_interval) {
            c->duty_value[i] = trimmed;
            since = 0;
        }
        c->cycles_since_duty_update[i] = since;

        c->out_dropped[i] = dropped;
        c->queue_length[i] = queue;
        c->v_switch[i] = (double)c->duty_value[i] / (double)c->levels
            * c->battery;
    }

    /* Buck integration: substep-major, so the dies' independent
     * dependency chains overlap in the CPU; each die still sees the
     * numpy op sequence. */
    for (int k = 0; k < 8; ++k) {
        for (int64_t i = 0; i < c->n; ++i) {
            double il = c->inductor_current[i];
            double vout = c->output_voltage[i];
            double di = il * c->r_on;
            di = c->v_switch[i] - di;
            di = di - vout;
            di = di / c->inductance;
            di = di * c->substep;
            il = il + di;
            double load;
            if (lookup(c, c->current_draw, i, vout, &load)) return -1;
            double dv = il - load;
            dv = dv / c->capacitance;
            dv = dv * c->substep;
            vout = vout + dv;
            vout = np_max(vout, 0.0);
            vout = np_min(vout, c->battery);
            c->inductor_current[i] = il;
            c->output_voltage[i] = vout;
        }
    }

    for (int64_t i = 0; i < c->n; ++i) {
        double vout = c->output_voltage[i];
        int64_t queue = c->queue_length[i];
        int64_t desired = c->desired[i];
        int64_t decision = c->out_decision[i];

        /* 4. Load progress and FIFO drain. */
        int runnable = vout > 0.05;
        double safe = runnable ? vout : 1.0;
        double cycle_time;
        if (lookup(c, c->cycle_time, i, safe, &cycle_time)) return -1;
        if (c->has_min_cycle_time)
            cycle_time = np_max(cycle_time, c->min_cycle_time);
        double progress = c->period / cycle_time;
        double work = c->work_accumulator[i] + progress;
        int64_t possible = (int64_t)work;
        if (runnable)
            c->work_accumulator[i] = work - (double)possible;
        else
            possible = 0;
        int64_t completed = imin(possible, queue);
        c->out_operations[i] = completed;
        queue -= completed;
        c->queue_length[i] = queue;
        c->operations_total[i] += completed;
        c->peak_queue[i] = imax(c->peak_queue[i], queue + completed);
        c->decision_up_total[i] += decision == 1;
        c->decision_hold_total[i] += decision == 0;
        c->decision_down_total[i] += decision == -1;

        /* 5. Load energy. */
        int powered = vout > 0;
        safe = powered ? vout : 1.0;
        double dynamic, leakage;
        if (lookup(c, c->dynamic_energy, i, safe, &dynamic)) return -1;
        dynamic = dynamic * c->scf_factor;
        dynamic = dynamic * (double)completed;
        if (lookup(c, c->leakage_current, i, safe, &leakage)) return -1;
        leakage = safe * leakage;
        leakage = leakage * c->period;
        double energy = powered ? dynamic + leakage : 0.0;
        c->out_energy[i] = energy;
        c->energy_total[i] += energy;

        /* 6. Variation compensation (settled == DECISION_HOLD). */
        if (!c->compensation || decision != 0) continue;
        if (vout > c->signature_ceiling) {
            c->vote_count[i] = 0;
            continue;
        }
        int reliable;
        int64_t apparent = tdc_code(c, i, vout, &reliable);
        int64_t shift;
        if (c->voltage_sense) {
            shift = voltage_code(c, vout) - apparent;
            shift = imin(imax(shift, -8), 8);
        } else {
            shift = imin(imax(desired, 0), c->max_code) - apparent;
        }
        if (!reliable) shift = 0;
        int64_t *votes = c->votes + i * K;
        int64_t slot = c->votes_pos[i];
        votes[slot] = shift;
        c->votes_pos[i] = (slot + 1) % K;
        int64_t count = imin(c->vote_count[i] + 1, K);
        c->vote_count[i] = count;
        if (count < K) continue;
        int unanimous = 1;
        for (int64_t j = 1; j < K; ++j)
            unanimous &= votes[j] == votes[0];
        if (!unanimous) continue;
        int64_t agreed = imin(imax(votes[0], -c->max_correction),
                              c->max_correction);
        int64_t gap = agreed - c->lut_correction[i];
        if (gap < 0) gap = -gap;
        if ((double)gap > c->deadband) {
            c->lut_correction[i] = agreed;
            c->vote_count[i] = 0;
            ++applied;
        }
    }
    return applied;
}
