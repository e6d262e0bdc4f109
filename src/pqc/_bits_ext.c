/* Compiled twin of the record functions of pqc._bits_py.
 *
 * encode_records and decode_records take the positional arguments of their
 * _bits_py namesakes and work on _bits_py.BitWriter and BitReader objects
 * through their _buf, _nbits and _pos slots; they write the same streams
 * and decode the same points.  They code the records of format versions 2
 * and 3, the only records a save writes.
 *
 * A record is signed-gamma(h_i - h_{i-1}) in lossy mode, then per axis the
 * code of (prev ^ cur) >> shift, with shift = max(h_i - gamma, 0) in lossy
 * mode and 0 in lossless mode.  That per-axis code is the Exp-Golomb code
 * of order gamma in lossy mode and the gamma code in lossless mode.
 *
 * The fast paths here cover coordinates below 2**32, heights below 64 and
 * well-formed streams.  Anything else - an argument out of that range, a
 * truncated or corrupt record - goes to the _bits_py function with the
 * caller's arguments untouched, so errors keep their exact class, message
 * and final reader.tell().
 *
 * Build: a plain CPython extension (setup.py builds it as pqc._bits_ext),
 * for example
 *   gcc -O3 -shared -fPIC -I<python include dir> _bits_ext.c \
 *       -o _bits_ext$(python3-config --extension-suffix)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef unsigned long long u64;

/* The _bits_py namesakes: the slow path of each function here. */
static PyObject *py_encode, *py_decode;
static PyObject *s_buf, *s_nbits, *s_pos;

static int
bitlen(u64 v)
{
#if defined(__GNUC__)
    return v ? 64 - __builtin_clzll(v) : 0;
#else
    int n = 0;
    while (v) {
        v >>= 1;
        n++;
    }
    return n;
#endif
}

/* OR the low n bits of v (n <= 64) into buf at bit pos, MSB first. */
static void
put_bits(unsigned char *buf, Py_ssize_t pos, u64 v, int n)
{
    while (n > 0) {
        int used = (int)(pos & 7);
        int take = 8 - used;
        if (take > n)
            take = n;
        unsigned chunk = (unsigned)((v >> (n - take)) & ((1u << take) - 1));
        buf[pos >> 3] |= (unsigned char)(chunk << (8 - used - take));
        pos += take;
        n -= take;
    }
}

/* The n bits (n <= 64) of buf at bit pos, MSB first. */
static u64
get_bits(const unsigned char *buf, Py_ssize_t pos, int n)
{
    u64 v = 0;
    while (n > 0) {
        int used = (int)(pos & 7);
        int take = 8 - used;
        if (take > n)
            take = n;
        v = (v << take) | ((buf[pos >> 3] >> (8 - used - take)) & ((1u << take) - 1));
        pos += take;
        n -= take;
    }
    return v;
}

/* The first 1 bit of buf at or after pos and below nbits, or -1. */
static Py_ssize_t
next_one(const unsigned char *buf, Py_ssize_t pos, Py_ssize_t nbits)
{
    while (pos < nbits) {
        unsigned byte = buf[pos >> 3] & (0xFFu >> (pos & 7));
        if (byte) {
            Py_ssize_t j = pos & ~(Py_ssize_t)7;
            while (!(byte & 0x80u)) {
                byte <<= 1;
                j++;
            }
            return j < nbits ? j : -1;
        }
        pos = (pos | 7) + 1;
    }
    return -1;
}

/* The code of coordinate delta v: the returned number of zeros, then the
 * *b bits of *u.  Lossy records write Exp-Golomb of order gamma, u = v +
 * 2**gamma after b - 1 - gamma zeros; lossless records write gamma, v
 * after b zeros, and 0 as a lone 1. */
static int
axis_code(u64 v, int lossy, u64 gamma, u64 *u, int *b)
{
    if (lossy) {
        *u = v + (1ull << gamma);
        *b = bitlen(*u);
        return *b - 1 - (int)gamma;
    }
    *u = v ? v : 1;
    *b = bitlen(*u);
    return v ? *b : 0;
}

/* A Python int in [0, limit] as u64; -1 (and no exception) otherwise. */
static int
as_u64(PyObject *obj, u64 limit, u64 *out)
{
    if (!PyLong_Check(obj))
        return -1;
    u64 v = PyLong_AsUnsignedLongLong(obj);
    if (v == (u64)-1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    if (v > limit)
        return -1;
    *out = v;
    return 0;
}

/* Integer slot ``name`` of obj as Py_ssize_t; -1 (and no exception) when
 * it is missing or negative. */
static Py_ssize_t
get_size(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t n = PyLong_Check(v) ? PyLong_AsSsize_t(v) : -1;
    Py_DECREF(v);
    if (n == -1 && PyErr_Occurred())
        PyErr_Clear();
    return n < 0 ? -1 : n;
}

static int
set_size(PyObject *obj, PyObject *name, Py_ssize_t n)
{
    PyObject *v = PyLong_FromSsize_t(n);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* The lossy argument as 0 or 1; -1 (and no exception) when it has no
 * truth value. */
static int
as_flag(PyObject *obj)
{
    int flag = PyObject_IsTrue(obj);
    if (flag < 0)
        PyErr_Clear();
    return flag;
}

#define MAX_COORD 0xFFFFFFFFull
#define MAX_HEIGHT 63

/* encode_records(writer, prev, prev_h, coords_seq, heights_seq, gamma,
 * lossy) */
static PyObject *
encode_records(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    PyObject *coords_fast = NULL, *heights_fast = NULL, *buf = NULL;
    u64 *vals = NULL; /* per point: d coordinates, then its height */
    PyObject *result = NULL;
    Py_ssize_t d, n, i, a, total = 0, start;
    u64 gamma = 0, prev_h = 0;
    int lossy;

    if (kwnames != NULL || nargs != 7)
        goto slow;
    lossy = as_flag(args[6]);
    if (lossy < 0)
        goto slow;
    if (lossy && (as_u64(args[5], 32, &gamma) || as_u64(args[2], MAX_HEIGHT, &prev_h)))
        goto slow;
    if (!PyTuple_Check(args[1]) && !PyList_Check(args[1]))
        goto slow;
    d = PySequence_Fast_GET_SIZE(args[1]);
    coords_fast = PySequence_Fast(args[3], "");
    if (coords_fast == NULL) {
        PyErr_Clear();
        goto slow;
    }
    n = PySequence_Fast_GET_SIZE(coords_fast);
    if (lossy) {
        heights_fast = PySequence_Fast(args[4], "");
        if (heights_fast == NULL) {
            PyErr_Clear();
            goto slow;
        }
        if (PySequence_Fast_GET_SIZE(heights_fast) != n)
            goto slow;
    }
    vals = PyMem_Malloc(sizeof(u64) * (size_t)(n + 1) * (size_t)(d + 1));
    if (vals == NULL)
        goto slow;
    /* Row 0 is prev; rows 1..n the points.  Lossless heights stay 0. */
    for (a = 0; a < d; a++)
        if (as_u64(PySequence_Fast_GET_ITEM(args[1], a), MAX_COORD, &vals[a]))
            goto slow;
    vals[d] = prev_h;
    for (i = 0; i < n; i++) {
        PyObject *cur = PySequence_Fast_GET_ITEM(coords_fast, i);
        u64 *row = vals + (i + 1) * (d + 1);
        if (!PyTuple_Check(cur) && !PyList_Check(cur))
            goto slow;
        if (PySequence_Fast_GET_SIZE(cur) < d)
            goto slow;
        for (a = 0; a < d; a++)
            if (as_u64(PySequence_Fast_GET_ITEM(cur, a), MAX_COORD, &row[a]))
                goto slow;
        row[d] = 0;
        if (lossy
            && as_u64(PySequence_Fast_GET_ITEM(heights_fast, i), MAX_HEIGHT, &row[d]))
            goto slow;
    }
    buf = PyObject_GetAttr(args[0], s_buf);
    if (buf == NULL) {
        PyErr_Clear();
        goto slow;
    }
    start = get_size(args[0], s_nbits);
    if (!PyByteArray_CheckExact(buf) || start < 0
        || PyByteArray_GET_SIZE(buf) < (start + 7) >> 3)
        goto slow;

    /* Pass 1: the length of every code. */
    for (i = 1; i <= n; i++) {
        u64 *prev = vals + (i - 1) * (d + 1), *cur = vals + i * (d + 1);
        u64 shift = cur[d] > gamma ? cur[d] - gamma : 0;
        if (lossy) {
            long long dh = (long long)cur[d] - (long long)prev[d];
            total += dh ? 2 * bitlen((u64)(dh < 0 ? -dh : dh)) + 1 : 1;
        }
        for (a = 0; a < d; a++) {
            u64 u;
            int b;
            total += axis_code((prev[a] ^ cur[a]) >> shift, lossy, gamma, &u, &b) + b;
        }
    }
    {
        Py_ssize_t old = PyByteArray_GET_SIZE(buf);
        Py_ssize_t need = (start + total + 7) >> 3;
        if (need > old) {
            if (PyByteArray_Resize(buf, need) < 0)
                goto error;
            memset(PyByteArray_AS_STRING(buf) + old, 0, (size_t)(need - old));
        }
    }

    /* Pass 2: the codes; the buffer is zero past start. */
    {
        unsigned char *out = (unsigned char *)PyByteArray_AS_STRING(buf);
        Py_ssize_t pos = start;
        for (i = 1; i <= n; i++) {
            u64 *prev = vals + (i - 1) * (d + 1), *cur = vals + i * (d + 1);
            u64 shift = cur[d] > gamma ? cur[d] - gamma : 0;
            if (lossy) {
                long long dh = (long long)cur[d] - (long long)prev[d];
                if (dh) {
                    u64 mag = (u64)(dh < 0 ? -dh : dh);
                    int b = bitlen(mag);
                    put_bits(out, pos + b, mag, b);
                    put_bits(out, pos + 2 * b, dh < 0, 1);
                    pos += 2 * b + 1;
                } else {
                    put_bits(out, pos, 1, 1);
                    pos += 1;
                }
            }
            for (a = 0; a < d; a++) {
                u64 u;
                int b;
                pos += axis_code((prev[a] ^ cur[a]) >> shift, lossy, gamma, &u, &b);
                put_bits(out, pos, u, b);
                pos += b;
            }
        }
    }
    if (set_size(args[0], s_nbits, start + total) < 0)
        goto error;
    result = PyLong_FromSsize_t(total);
    goto done;

slow:
    result = PyObject_Vectorcall(py_encode, args, nargs, kwnames);
    goto done;
error:
    result = NULL;
done:
    PyMem_Free(vals);
    Py_XDECREF(buf);
    Py_XDECREF(coords_fast);
    Py_XDECREF(heights_fast);
    return result;
}

/* decode_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit[, count])
 * A count of None, or none given, leaves end_bit as the only bound. */
static PyObject *
decode_records(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    PyObject *data = NULL, *coords = NULL, *heights = NULL, *result = NULL;
    Py_buffer view = {0};
    u64 d, w, gamma, prev_h = 0, p[64];
    Py_ssize_t nbits, pos, end_bit, a, count = PY_SSIZE_T_MAX;
    int lossy;

    if (kwnames != NULL || nargs < 8 || nargs > 9)
        goto slow;
    lossy = as_flag(args[6]);
    if (lossy < 0)
        goto slow;
    if (as_u64(args[3], 64, &d) || d == 0 || as_u64(args[4], 32, &w)
        || as_u64(args[5], w, &gamma) || (lossy && as_u64(args[2], w, &prev_h)))
        goto slow;
    if (!PyTuple_Check(args[1]) && !PyList_Check(args[1]))
        goto slow;
    if (PySequence_Fast_GET_SIZE(args[1]) != (Py_ssize_t)d)
        goto slow;
    for (a = 0; a < (Py_ssize_t)d; a++)
        if (as_u64(PySequence_Fast_GET_ITEM(args[1], a), MAX_COORD, &p[a]))
            goto slow;
    if (!PyLong_Check(args[7]))
        goto slow;
    end_bit = PyLong_AsSsize_t(args[7]);
    if (end_bit == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        goto slow;
    }
    if (nargs == 9 && args[8] != Py_None) {
        if (!PyLong_Check(args[8]))
            goto slow;
        count = PyLong_AsSsize_t(args[8]);
        if (count == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            goto slow;
        }
    }
    data = PyObject_GetAttr(args[0], s_buf);
    if (data == NULL) {
        PyErr_Clear();
        goto slow;
    }
    if (PyObject_GetBuffer(data, &view, PyBUF_SIMPLE) < 0) {
        PyErr_Clear();
        goto slow;
    }
    nbits = get_size(args[0], s_nbits);
    pos = get_size(args[0], s_pos);
    if (nbits < 0 || pos < 0 || nbits > 8 * view.len)
        goto slow;
    coords = PyList_New(0);
    heights = PyList_New(0);
    if (coords == NULL || heights == NULL)
        goto error;

    {
        const unsigned char *buf = (const unsigned char *)view.buf;
        u64 one = 1ull << gamma, shift = 0, room = w;
        for (; pos < end_bit && count > 0; count--) {
            Py_ssize_t j, z;
            if (lossy) {
                /* Signed gamma of the height delta; "1" is a zero delta. */
                long long h;
                j = next_one(buf, pos, nbits);
                if (j < 0)
                    goto slow;
                z = j - pos;
                if (z) {
                    /* A magnitude of 2**7 or more leaves [0, w]. */
                    if (z > 7 || j + z + 1 > nbits)
                        goto slow;
                    long long mag = (long long)get_bits(buf, j, (int)z);
                    h = get_bits(buf, j + z, 1) ? (long long)prev_h - mag
                                                : (long long)prev_h + mag;
                    pos = j + z + 1;
                } else {
                    h = (long long)prev_h;
                    pos = j + 1;
                }
                if (h < 0 || h > (long long)w)
                    goto slow;
                prev_h = (u64)h;
                shift = prev_h > gamma ? prev_h - gamma : 0;
                room = w - shift;
            }
            for (a = 0; a < (Py_ssize_t)d; a++) {
                /* z zeros, then the bits of the code's value: z + gamma + 1
                 * bits of delta + 2**gamma (Exp-Golomb, lossy), or z bits
                 * of delta (gamma, lossless), where z = 0 leaves the lone
                 * 1 of 0. */
                Py_ssize_t bits;
                u64 delta;
                j = next_one(buf, pos, nbits);
                if (j < 0)
                    goto slow;
                z = j - pos;
                bits = lossy ? z + (Py_ssize_t)gamma + 1 : (z ? z : 1);
                if (bits > 64 || j + bits > nbits)
                    goto slow;
                delta = get_bits(buf, j, (int)bits) - (lossy ? one : (u64)(z == 0));
                if (delta >> room)
                    goto slow;
                p[a] = ((p[a] >> shift) ^ delta) << shift;
                pos = j + bits;
            }
            PyObject *pt = PyTuple_New((Py_ssize_t)d);
            if (pt == NULL)
                goto error;
            for (a = 0; a < (Py_ssize_t)d; a++) {
                PyObject *c = PyLong_FromUnsignedLongLong(p[a]);
                if (c == NULL) {
                    Py_DECREF(pt);
                    goto error;
                }
                PyTuple_SET_ITEM(pt, a, c);
            }
            int rc = PyList_Append(coords, pt);
            Py_DECREF(pt);
            if (rc < 0)
                goto error;
            PyObject *hv = PyLong_FromUnsignedLongLong(prev_h);
            if (hv == NULL)
                goto error;
            rc = PyList_Append(heights, hv);
            Py_DECREF(hv);
            if (rc < 0)
                goto error;
        }
    }
    if (set_size(args[0], s_pos, pos) < 0)
        goto error;
    result = PyTuple_Pack(2, coords, heights);
    goto done;

slow:
    /* The reader's cursor has not moved. */
    result = PyObject_Vectorcall(py_decode, args, nargs, kwnames);
    goto done;
error:
    result = NULL;
done:
    if (view.obj != NULL)
        PyBuffer_Release(&view);
    Py_XDECREF(data);
    Py_XDECREF(coords);
    Py_XDECREF(heights);
    return result;
}

static PyMethodDef methods[] = {
    {"encode_records", (PyCFunction)(void (*)(void))encode_records,
     METH_FASTCALL | METH_KEYWORDS,
     "encode_records(writer, prev, prev_h, coords_seq, heights_seq, gamma, lossy)\n\n"
     "_bits_py.encode_records, compiled: append one record of format versions\n"
     "2 and 3 per point to writer, a _bits_py.BitWriter; returns bits written."},
    {"decode_records", (PyCFunction)(void (*)(void))decode_records,
     METH_FASTCALL | METH_KEYWORDS,
     "decode_records(reader, prev, prev_h, d, w, gamma, lossy, end_bit, count=None)\n\n"
     "_bits_py.decode_records, compiled: decode records of format versions 2\n"
     "and 3 from reader, a _bits_py.BitReader, through the first record\n"
     "boundary at or after end_bit, or count records; returns (coords, heights)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_bits_ext",
    "Compiled twin of the record functions of pqc._bits_py.",
    -1,
    methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__bits_ext(void)
{
    PyObject *py = PyImport_ImportModule("pqc._bits_py");
    if (py == NULL)
        return NULL;
    py_encode = PyObject_GetAttrString(py, "encode_records");
    py_decode = PyObject_GetAttrString(py, "decode_records");
    Py_DECREF(py);
    s_buf = PyUnicode_InternFromString("_buf");
    s_nbits = PyUnicode_InternFromString("_nbits");
    s_pos = PyUnicode_InternFromString("_pos");
    if (!py_encode || !py_decode || !s_buf || !s_nbits || !s_pos)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
